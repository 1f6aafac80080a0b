#include "runtime/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "common/env.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"
#include "runtime/journal.hpp"

namespace simdts::runtime {

unsigned sweep_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<unsigned>(common::env_u64(
      "SIMDTS_SWEEP_THREADS", hw > 0 ? hw : 1, kMaxSweepThreads));
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads == 0 ? sweep_threads() : threads) {}

void SweepRunner::run_impl(std::size_t n, void* ctx, Trampoline fn) {
  if (n == 0) return;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(ctx, i);
      } catch (...) {
        const std::lock_guard lock(err_mu);
        if (!first_error) first_error = std::current_exception();
        // Stop handing out further work; in-flight tasks still finish.
        next.store(n, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> extra;
  extra.reserve(workers - 1);
  for (unsigned t = 1; t < workers; ++t) {
    extra.emplace_back(drain);
  }
  drain();
  for (auto& t : extra) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

const char* to_string(TaskStatus s) {
  switch (s) {
    case TaskStatus::kOk: return "ok";
    case TaskStatus::kTimeout: return "timeout";
    case TaskStatus::kTransient: return "transient";
    case TaskStatus::kFailed: return "failed";
  }
  return "?";
}

std::uint64_t backoff_delay_ms(const RetryPolicy& policy, std::uint32_t retry,
                               std::uint64_t salt) {
  if (retry == 0 || policy.backoff_ms == 0) return 0;
  // Retry k (1-based) waits backoff_ms << (k - 1); the shift is clamped so
  // absurd attempt limits saturate instead of shifting past the width.
  const std::uint32_t shift = std::min(retry - 1, 32u);
  const std::uint64_t base = static_cast<std::uint64_t>(policy.backoff_ms)
                             << shift;
  if (policy.jitter_seed == 0) return base;
  std::uint64_t state = policy.jitter_seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  state += retry;
  return base + fault::splitmix64(state) % base;
}

std::vector<TaskReport> run_tasks(SweepRunner& runner, std::size_t n,
                                  const std::function<void(std::size_t)>& task,
                                  RetryPolicy policy) {
  std::vector<TaskReport> reports(n);
  const std::uint32_t max_attempts = std::max(policy.max_attempts, 1u);
  // SIMDLINT-SOURCE(partition) — the slot index arrives on whichever worker
  runner.run(n, [&](std::size_t i) {
    TaskReport& r = reports[i];
    for (std::uint32_t attempt = 0;; ++attempt) {
      r.attempts = attempt + 1;
      try {
        task(i);
        r.status = TaskStatus::kOk;
        r.message.clear();
        return;
      } catch (const TimeoutError& e) {
        // Deterministic: would time out identically on retry.
        r.status = TaskStatus::kTimeout;
        r.message = e.what();
        return;
      } catch (const TransientError& e) {
        r.status = TaskStatus::kTransient;
        r.message = e.what();
        if (attempt + 1 >= max_attempts) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            backoff_delay_ms(policy, attempt + 1, i)));
      } catch (const std::exception& e) {
        r.status = TaskStatus::kFailed;
        r.message = e.what();
        return;
      }
    }
  });
  return reports;
}

void run_journaled(
    SweepRunner& runner, std::size_t n, Journal* journal, bool resume,
    const std::function<bool(std::size_t, const std::string&)>& replay,
    const std::function<std::string(std::size_t)>& task) {
  // Determinism makes the merge exact: a replayed slot is bit-identical to
  // what its re-run would produce.  A damaged entry fails its checksum and
  // simply re-runs.
  std::vector<std::uint8_t> done(n, std::uint8_t{0});
  if (journal != nullptr && resume) {
    for (const auto& [key, entry] : journal->load()) {
      if (key < n && entry.intact(key) && replay(key, entry.payload)) {
        done[key] = 1;
      }
    }
  }
  runner.run(n, [&](std::size_t k) {
    if (done[k] != 0) return;
    const std::string payload = task(k);
    if (journal != nullptr) journal->record(k, payload);
  });
}

}  // namespace simdts::runtime
