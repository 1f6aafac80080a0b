#include "simd/thread_pool.hpp"

#include <algorithm>

namespace simdts::simd {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  lanes_ = threads;
  errors_.resize(lanes_);
  if (lanes_ > 1) {
    workers_.reserve(lanes_);
    for (unsigned lane = 0; lane < lanes_; ++lane) {
      workers_.emplace_back([this, lane] { worker(lane); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

std::size_t ThreadPool::chunk_size(std::size_t n,
                                   std::size_t align) const noexcept {
  const std::size_t chunk = (n + lanes_ - 1) / lanes_;
  return align > 1 ? (chunk + align - 1) / align * align : chunk;
}

// SIMDLINT-SOURCE(partition) — the chunk split depends on the lane count
void ThreadPool::run_lane(unsigned lane) {
  const std::size_t chunk = chunk_size(n_, align_);
  const std::size_t begin = std::min(n_, lane * chunk);
  const std::size_t end = std::min(n_, begin + chunk);
  if (begin < end) {
    try {
      fn_(ctx_, lane, begin, end);
    } catch (...) {
      errors_[lane] = std::current_exception();
    }
  }
}

void ThreadPool::worker(unsigned lane) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    run_lane(lane);
    {
      std::lock_guard lock(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::dispatch(std::size_t n, std::size_t align, void* ctx,
                          Trampoline fn) {
  if (n == 0) return;
  if (align == 0) align = 1;
  // One non-empty chunk (a single lane, or n within one aligned chunk): run
  // it here as lane 0 — exactly what the workers would do, minus the
  // mutex/condvar round-trip.
  if (chunk_size(n, align) >= n) {
    fn(ctx, 0, 0, n);
    return;
  }
  {
    std::unique_lock lock(mu_);
    n_ = n;
    align_ = align;
    ctx_ = ctx;
    fn_ = fn;
    std::fill(errors_.begin(), errors_.end(), nullptr);
    pending_ = lanes_;
    ++generation_;
    cv_start_.notify_all();
    cv_done_.wait(lock, [&] { return pending_ == 0; });
    ctx_ = nullptr;
    fn_ = nullptr;
  }
  for (auto& err : errors_) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace simdts::simd
