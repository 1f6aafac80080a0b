// Word-aligned chunked storage for per-lane state at mega-P scale.
//
// A ShardedArray stores P per-PE objects (the engine's work stacks) in
// fixed-size shards of 4096 elements — 64 flag-plane words of lanes,
// matching the engine's host-thread partition alignment, so no flag-plane
// word ever maps to elements of two shards.  Every shard is allocated up
// front and the array is never resized, so element addresses are stable
// for its lifetime; indexing is a shift and a mask.  (One std::vector in
// its place was measured: at P = 8192 it made engine construction ~35%
// slower, with no page faults; the cause is not known.)
#pragma once

#include <cstddef>
#include <vector>

namespace simdts::common {

template <typename T>
class ShardedArray {
 public:
  /// Elements per shard; a power of two and a multiple of 64 (one flag-plane
  /// word of lanes never spans two shards).
  static constexpr std::size_t kShardElems = 4096;

  explicit ShardedArray(std::size_t n) : size_(n) {
    const std::size_t shards = (n + kShardElems - 1) / kShardElems;
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t count =
          s + 1 == shards ? n - s * kShardElems : kShardElems;
      shards_.emplace_back(count);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return shards_[i / kShardElems][i % kShardElems];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return shards_[i / kShardElems][i % kShardElems];
  }

  /// Calls f(element) for every element in index order.
  template <typename F>
  void for_each(F&& f) {
    for (auto& shard : shards_) {
      for (T& e : shard) f(e);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& shard : shards_) {
      for (const T& e : shard) f(e);
    }
  }

 private:
  std::vector<std::vector<T>> shards_;
  std::size_t size_ = 0;
};

}  // namespace simdts::common
