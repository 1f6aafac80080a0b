#include "runtime/sweep.hpp"

#include <algorithm>
#include <chrono>
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

unsigned sweep_lanes(unsigned threads, std::size_t n) {
  const unsigned wanted = threads == 0 ? sweep_threads() : threads;
  return static_cast<unsigned>(std::clamp<std::size_t>(n, 1, wanted));
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

std::vector<TaskReport> run_tasks(unsigned threads, std::size_t n,
                                  const std::function<void(std::size_t)>& task,
                                  RetryPolicy policy) {
  std::vector<TaskReport> reports(n);
  const std::uint32_t max_attempts = std::max(policy.max_attempts, 1u);
  simd::ThreadPool pool(sweep_lanes(threads, n));
  // SIMDLINT-SOURCE(partition) — the slot index arrives on whichever lane
  pool.run(n, [&](std::size_t i) {
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
    unsigned threads, std::size_t n, Journal* journal, bool resume,
    const std::function<SlotSize(std::size_t)>& size,
    const std::function<std::uint64_t(std::size_t)>& seed,
    const std::function<bool(std::size_t, const std::string&)>& replay,
    const std::function<std::string(std::size_t)>& task) {
  // Determinism makes the merge exact: a replayed slot is bit-identical to
  // what its re-run would produce.  A damaged entry, or one written under
  // other inputs, fails its checksum and simply re-runs.
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint8_t> done(n, std::uint8_t{0});
  if (journal != nullptr) {
    seeds.reserve(n);
    for (std::size_t k = 0; k < n; ++k) seeds.push_back(seed(k));
    if (resume) {
      for (const auto& [key, entry] : journal->load()) {
        if (key < n && entry.intact(key, seeds[key]) &&
            replay(key, entry.payload)) {
          done[key] = 1;
        }
      }
    }
  }
  // Largest first: the sweep cannot end before its longest slot does, so
  // that slot must not start last.  The order is a pure function of the
  // inputs, which keeps the rethrown exception independent of the lanes.
  std::vector<std::size_t> order;
  std::vector<SlotSize> sizes(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (done[k] != 0) continue;
    order.push_back(k);
    sizes[k] = size(k);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sizes[a] > sizes[b];
                   });
  simd::ThreadPool pool(sweep_lanes(threads, order.size()));
  pool.run(order.size(), [&](std::size_t i) {
    const std::size_t k = order[i];
    const std::string payload = task(k);
    if (journal != nullptr) journal->record(k, payload, seeds[k]);
  });
}

}  // namespace simdts::runtime
