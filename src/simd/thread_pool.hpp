// A barrier-synchronised thread pool: the one set of host threads behind
// every parallel loop, from one lock-step PE cycle to a sweep of whole runs.
//
// A pool of k lanes starts k - 1 persistent workers and the calling thread
// runs lane 0.  Both entry points end at one barrier, like the SIMD
// machine's implicit global synchronisation, and pass the body as a
// (context, trampoline) pair, so dispatch allocates nothing.  Each PE's
// state and each task's result slot is private to its index, so results are
// bit-identical for any lane count.  With one lane, one non-empty chunk or
// one task, lane 0 does all the work and no worker is woken.
#pragma once

#include <atomic>
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
  /// Creates a pool of `threads` lanes: threads - 1 workers plus the calling
  /// thread.  `threads == 0` picks the host's hardware concurrency;
  /// `threads == 1` starts no worker and runs everything inline.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of lanes work is divided into (>= 1).
  [[nodiscard]] unsigned size() const noexcept { return lanes_; }

  /// Runs body(lane, begin, end) over a partition of [0, n) into at most
  /// size() contiguous chunks, one per lane, and blocks until all chunks are
  /// done; lane 0's chunk runs on the calling thread.  Every chunk boundary
  /// is a multiple of `align` (the last chunk still ends at n; align == 1 is
  /// the plain even split).  The engine uses align == 64 plane words so each
  /// 64-word summary block — one summary *word* — has a single writer per
  /// cycle.
  ///
  /// Each lane index is used by at most one chunk per dispatch, so
  /// body(lane, ...) may write lane-private accumulators without locking; the
  /// caller reduces them after the call returns (i.e. at the barrier).  Lanes
  /// whose chunk is empty are not invoked.  Exceptions thrown by the body are
  /// rethrown (the first one by chunk order) after all lanes finish.
  template <typename F>
  void parallel_for_lanes_aligned(std::size_t n, std::size_t align, F&& body) {
    using Fn = std::remove_reference_t<F>;
    dispatch(n, chunk_size(n, align == 0 ? 1 : align),
             const_cast<std::remove_const_t<Fn>*>(std::addressof(body)),
             [](void* ctx, unsigned lane, std::size_t begin, std::size_t end) {
               (*static_cast<Fn*>(ctx))(lane, begin, end);
             });
  }

  /// Runs task(i) for every i in [0, n), each exactly once, and blocks until
  /// all tasks finish.  Indices are handed out from an atomic counter in
  /// increasing order, one at a time, to whichever lane is free (a sweep's
  /// tasks vary by orders of magnitude in cost, so a static split would
  /// straggle).  Tasks must not share mutable state (distinct result slots
  /// are fine).  After a task throws, no further index is handed out,
  /// running tasks finish, and the exception of the lowest failing index is
  /// rethrown — the one a serial loop would have met first, since every
  /// lower index was handed out before it.
  template <typename F>
  void run(std::size_t n, F&& task) {
    using Fn = std::remove_reference_t<F>;
    dispatch(n, 0, const_cast<std::remove_const_t<Fn>*>(std::addressof(task)),
             [](void* ctx, unsigned, std::size_t i, std::size_t) {
               (*static_cast<Fn*>(ctx))(i);
             });
  }

 private:
  using Trampoline = void (*)(void*, unsigned, std::size_t, std::size_t);

  struct Failure {
    std::size_t index = 0;  ///< the failing chunk's begin, or task index
    std::exception_ptr error;
  };

  /// The one barrier: runs fn over [0, n) on every lane and waits for all of
  /// them.  chunk > 0 is the static split (lane l takes [l*chunk,
  /// (l+1)*chunk)); chunk == 0 hands out single indices from next_.
  void dispatch(std::size_t n, std::size_t chunk, void* ctx, Trampoline fn);
  /// Chunk length of the aligned partition of [0, n) over size() lanes.
  [[nodiscard]] std::size_t chunk_size(std::size_t n,
                                       std::size_t align) const noexcept;
  void worker(unsigned lane);
  void run_lane(unsigned lane);
  /// Runs fn_ on [begin, end); on a throw, records it for the lane, stops
  /// the index handout and returns false.
  bool call(unsigned lane, std::size_t begin, std::size_t end);
  void stop_workers() noexcept;

  unsigned lanes_ = 1;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;  ///< workers still inside the current dispatch
  bool stop_ = false;

  // Per-dispatch state, set under mu_ and read-only until the barrier.
  std::size_t n_ = 0;
  std::size_t chunk_ = 0;
  void* ctx_ = nullptr;
  Trampoline fn_ = nullptr;
  std::atomic<std::size_t> next_{0};  ///< next index run() hands out
  std::vector<Failure> failures_;     ///< one slot per lane

  std::vector<std::thread> workers_;  ///< lanes 1 .. lanes_ - 1
};

}  // namespace simdts::simd
