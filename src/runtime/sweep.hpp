// Sweeps: grids of independent simulations on one simd::ThreadPool.
//
// Every figure and table in the reproduction is a sweep over fully
// independent, deterministic runs — (config, machine size, workload) tuples
// that share nothing.  The simulated machine is lock-step and its clock is
// simulated time, so nothing about a run depends on when or where the host
// executes it.  That makes the whole bench suite embarrassingly parallel at
// the *sweep* level, which is where the wall-clock win is (the per-cycle
// dispatch inside one Machine parallelizes a single run, but a sweep of
// hundreds of runs scales trivially with host cores).
//
// Design:
//   - A sweep of n tasks runs on one pool of sweep_lanes(threads, n) lanes,
//     whose ThreadPool::run hands out task indices from an atomic counter
//     (dynamic scheduling — grid tasks vary by orders of magnitude in cost,
//     so static chunking would straggle).
//   - Results go into pre-sized slots indexed by task id (see sweep_map), so
//     output order — and therefore every CSV derived from it — is
//     bit-identical to the serial run regardless of thread count or
//     completion order.
//   - Each task owns its private simd::Machine/engine state; the pool never
//     shares simulation state across tasks.
// Robustness (docs/robustness.md): run_tasks() runs a sweep with a typed
// per-task outcome — a task that throws simdts::TimeoutError (the engine
// watchdog) yields a kTimeout report instead of aborting the sweep, a
// simdts::TransientError is retried with exponential backoff up to the
// RetryPolicy's attempt limit, and anything else is reported kFailed with
// its message.  run_journaled() makes a sweep resumable on top of
// runtime::Journal (the analysis and bench layers own the payload codecs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simd/thread_pool.hpp"

namespace simdts::runtime {

/// Upper bound on $SIMDTS_SWEEP_THREADS: a sweep runs up to this many
/// lanes, so a larger value is a typo, not a host.
inline constexpr std::uint64_t kMaxSweepThreads = 1024;

/// Host threads a sweep uses by default: $SIMDTS_SWEEP_THREADS if set, else
/// the hardware concurrency (>= 1).  A value that is not an integer in
/// [1, kMaxSweepThreads] throws simdts::ConfigError naming the variable.
[[nodiscard]] unsigned sweep_threads();

/// Lanes of the pool a sweep of `n` tasks runs on: min(threads, n), and at
/// least 1, with `threads == 0` meaning sweep_threads().
[[nodiscard]] unsigned sweep_lanes(unsigned threads, std::size_t n);

/// The name perfbench still uses for the sweep pool.
using SweepRunner = simd::ThreadPool;

/// Outcome class of one sweep task under run_tasks().
enum class TaskStatus : std::uint8_t {
  kOk,        ///< completed (possibly after transient retries)
  kTimeout,   ///< threw simdts::TimeoutError (watchdog); never retried
  kTransient, ///< threw simdts::TransientError on every allowed attempt
  kFailed,    ///< threw anything else; not retried
};

[[nodiscard]] const char* to_string(TaskStatus s);

/// Per-task report filled in by run_tasks(), slot-indexed like the results.
struct TaskReport {
  TaskStatus status = TaskStatus::kOk;
  std::uint32_t attempts = 1;  ///< executions of the task body
  std::string message;         ///< the final exception's what(), if any

  friend bool operator==(const TaskReport&, const TaskReport&) = default;
};

/// Retry policy for transient failures.  Timeouts and hard failures are
/// never retried — a deterministic simulation that blew its budget once
/// will blow it every time.
struct RetryPolicy {
  std::uint32_t max_attempts = 3;   ///< total executions (first + retries)
  /// Base backoff: the sleep before retry k (1-based) is
  /// backoff_ms << (k - 1) — the first retry waits the base delay, every
  /// further retry doubles it.  See backoff_delay_ms() for the exact
  /// (clamped, optionally jittered) schedule.
  std::uint32_t backoff_ms = 10;
  /// Nonzero arms deterministic jitter: each delay gains a SplitMix64-derived
  /// offset in [0, base) mixed from (jitter_seed, salt, retry), so
  /// simultaneous retries of different tasks decorrelate without any host
  /// RNG state.  Zero (the default) keeps the schedule exactly exponential.
  std::uint64_t jitter_seed = 0;
};

/// The backoff schedule as a pure function: the delay in milliseconds slept
/// before retry `retry` (1-based — retry 1 precedes the second execution;
/// retry 0 is meaningless and returns 0).  The base delay is
/// backoff_ms << (retry - 1) with the shift clamped at 32, so a pathological
/// attempt limit saturates instead of shifting past the width (undefined
/// behaviour).  With policy.jitter_seed != 0 a deterministic jitter in
/// [0, base) is added, derived from SplitMix64 over (jitter_seed, salt,
/// retry); `salt` identifies the retrying task (run_tasks passes the task
/// index) so concurrent retries spread out.  Exposed — and kept pure — so
/// tests and the service layer can pin the exact schedule without sleeping.
[[nodiscard]] std::uint64_t backoff_delay_ms(const RetryPolicy& policy,
                                             std::uint32_t retry,
                                             std::uint64_t salt = 0);

/// Runs task(i) for every i in [0, n) on a pool of sweep_lanes(threads, n)
/// lanes, with failures contained per task: returns one TaskReport per index
/// instead of rethrowing.  A task throwing TransientError is re-attempted
/// (with exponential backoff) up to policy.max_attempts times; TimeoutError
/// and other exceptions settle the task immediately.  The sweep always
/// visits every index.
[[nodiscard]] std::vector<TaskReport> run_tasks(
    unsigned threads, std::size_t n,
    const std::function<void(std::size_t)>& task, RetryPolicy policy = {});

class Journal;

/// Checkpointed sweep over slots [0, n) on a pool of sweep_lanes(threads, n)
/// lanes.  Slot k's journal entry is checksummed under seed(k), a
/// fingerprint of the inputs its result depends on.  With `resume`, every
/// journal entry for a slot in range that is intact under that seed is
/// offered to `replay(k, payload)`; a slot whose payload replay accepts is
/// done.  An entry written under other inputs is not intact, so its slot
/// runs again.  Every other slot runs `task(k)`, and the payload it returns
/// is recorded under key k.  A null `journal` runs every slot and records
/// nothing.  Like ThreadPool::run, the exception of the lowest failing slot
/// is rethrown.
void run_journaled(unsigned threads, std::size_t n, Journal* journal,
                   bool resume,
                   const std::function<std::uint64_t(std::size_t)>& seed,
                   const std::function<bool(std::size_t, const std::string&)>&
                       replay,
                   const std::function<std::string(std::size_t)>& task);

/// Maps fn over [0, n) in parallel and returns the results in index order:
/// out[i] == fn(i), bit-identical to the serial loop for any thread count.
template <typename T, typename F>
[[nodiscard]] std::vector<T> sweep_map(std::size_t n, F&& fn,
                                       unsigned threads = 0) {
  std::vector<T> out(n);
  simd::ThreadPool pool(sweep_lanes(threads, n));
  pool.run(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace simdts::runtime
