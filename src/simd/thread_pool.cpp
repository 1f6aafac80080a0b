#include "simd/thread_pool.hpp"

#include <algorithm>

namespace simdts::simd {

ThreadPool::ThreadPool(unsigned threads)
    : lanes_(threads != 0 ? threads
                          : std::max(1u, std::thread::hardware_concurrency())),
      failures_(lanes_) {
  workers_.reserve(lanes_ - 1);
  try {
    for (unsigned lane = 1; lane < lanes_; ++lane) {
      workers_.emplace_back([this, lane] { worker(lane); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() noexcept {
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

bool ThreadPool::call(unsigned lane, std::size_t begin, std::size_t end) {
  try {
    fn_(ctx_, lane, begin, end);
    return true;
  } catch (...) {
    failures_[lane] = {begin, std::current_exception()};
    next_.store(n_, std::memory_order_relaxed);
    return false;
  }
}

void ThreadPool::run_lane(unsigned lane) {
  if (chunk_ != 0) {
    // SIMDLINT-SOURCE(partition) — the chunk split depends on the lane count
    const std::size_t begin = std::min(n_, lane * chunk_);
    const std::size_t end = std::min(n_, begin + chunk_);
    if (begin < end) call(lane, begin, end);
    return;
  }
  for (;;) {
    // SIMDLINT-SOURCE(partition) — which lane draws an index depends on timing
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_ || !call(lane, i, i + 1)) return;
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

void ThreadPool::dispatch(std::size_t n, std::size_t chunk, void* ctx,
                          Trampoline fn) {
  if (n == 0) return;
  // One lane, one non-empty chunk, or one task: lane 0 does all of it here
  // and no worker is woken.
  const bool wake = lanes_ > 1 && chunk < n && n > 1;
  std::unique_lock lock(mu_);
  n_ = n;
  chunk_ = chunk;
  ctx_ = ctx;
  fn_ = fn;
  next_.store(0, std::memory_order_relaxed);
  std::fill(failures_.begin(), failures_.end(), Failure{});
  if (wake) {
    pending_ = lanes_ - 1;
    ++generation_;
    cv_start_.notify_all();
  }
  lock.unlock();
  run_lane(0);
  lock.lock();
  cv_done_.wait(lock, [&] { return pending_ == 0; });
  ctx_ = nullptr;
  fn_ = nullptr;
  lock.unlock();
  // Chunks and handed-out indices both ascend, so the lowest failing index
  // is the failure a serial loop would have met first.
  const Failure* first = nullptr;
  for (const Failure& f : failures_) {
    if (f.error && (first == nullptr || f.index < first->index)) first = &f;
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

}  // namespace simdts::simd
