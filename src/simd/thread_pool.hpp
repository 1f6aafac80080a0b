// A small barrier-synchronised thread pool used to execute one lock-step PE
// cycle across host threads.
//
// The pool mirrors the data-parallel structure of the emulated machine: a
// cycle is one dispatch over the plane-word range, each worker owns a
// contiguous chunk of PEs, and the call returns only after every worker has
// finished (a barrier, exactly like the SIMD machine's implicit global
// synchronisation).  Because each PE's state is private to its index, the
// emulation is bit-deterministic regardless of the number of host threads.
//
// Dispatch is allocation-free: the body is passed as a (context, trampoline)
// pair rather than a std::function, and parallel_for_lanes_aligned hands the
// body its lane index so callers can reduce into pre-sized per-lane
// accumulator slots after the barrier instead of merging under a mutex inside
// the hot loop.
//
// On a single-core host (or with threads == 1), and for any dispatch whose
// range fits in one aligned chunk, the pool degrades to an inline call with
// zero synchronisation overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace simdts::simd {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers.  `threads == 0` picks the host's
  /// hardware concurrency; `threads == 1` means "run inline, no workers".
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of lanes work is divided into (>= 1).
  [[nodiscard]] unsigned size() const noexcept { return lanes_; }

  /// Runs body(lane, begin, end) over a partition of [0, n) into at most
  /// size() contiguous chunks, one per lane, and blocks until all chunks are
  /// done.  Every chunk boundary is a multiple of `align` (the last chunk
  /// still ends at n; align == 1 is the plain even split).  The engine uses
  /// align == 64 plane words so each 64-word summary block — one summary
  /// *word* — has a single writer per cycle.
  ///
  /// Each lane index is used by at most one chunk per dispatch, so
  /// body(lane, ...) may write lane-private accumulators without locking; the
  /// caller reduces them after the call returns (i.e. at the barrier).  Lanes
  /// whose chunk is empty are not invoked.  Exceptions thrown by the body are
  /// rethrown (the first one encountered, by lane order) after all lanes
  /// finish.  When the partition has a single non-empty chunk (n fits in one
  /// aligned chunk), body(0, 0, n) runs inline on the calling thread and no
  /// worker is woken.
  template <typename F>
  void parallel_for_lanes_aligned(std::size_t n, std::size_t align, F&& body) {
    using Fn = std::remove_reference_t<F>;
    dispatch(n, align,
             const_cast<std::remove_const_t<Fn>*>(std::addressof(body)),
             [](void* ctx, unsigned lane, std::size_t begin, std::size_t end) {
               (*static_cast<Fn*>(ctx))(lane, begin, end);
             });
  }

 private:
  using Trampoline = void (*)(void*, unsigned, std::size_t, std::size_t);

  void dispatch(std::size_t n, std::size_t align, void* ctx, Trampoline fn);
  /// Chunk length of the aligned partition of [0, n) over size() lanes.
  [[nodiscard]] std::size_t chunk_size(std::size_t n,
                                       std::size_t align) const noexcept;
  void worker(unsigned lane);
  void run_lane(unsigned lane);

  unsigned lanes_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stop_ = false;

  // Per-dispatch state (valid while pending_ > 0).
  std::size_t n_ = 0;
  std::size_t align_ = 1;
  void* ctx_ = nullptr;
  Trampoline fn_ = nullptr;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace simdts::simd
