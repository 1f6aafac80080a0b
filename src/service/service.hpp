// SolveService: the robust front door of the library (docs/service.md).
//
// run_trace() turns an arrival-ordered vector of Requests into one Response
// per request through four deterministic passes:
//
//   1. admission (serial): AdmissionController replays the trace on its
//      virtual clock and decides admit / degrade / shed / reject per
//      request.
//   2. cache + dedup pre-pass (serial, trace order): each admitted request
//      does a verified read of the result cache under its effective
//      parameters; hits answer immediately, corrupt entries become misses
//      with a recorded diagnostic.  The first miss of each canonical key
//      becomes that key's *leader*; later identical requests coalesce onto
//      it instead of solving twice.
//   3. execution (parallel): leaders run on a bounded engine pool via
//      runtime::sweep_map into slot-indexed outcomes.  Scripted
//      kEngineCrash faults are not run but counted: a leader whose plan
//      scripts c crashes takes min(c, max_attempts - 1) + 1 attempts, and
//      one with c >= max_attempts fails without solving.  Deadlines are
//      simulated-cycle budgets enforced by the engine watchdog — a
//      TimeoutError is converted to a kBudgetExhausted response carrying
//      best-so-far stats, never a hang.  Backoff is charged on the virtual
//      clock from the pure backoff_delay_ms schedule; the service never
//      sleeps host time.
//   4. accounting post-pass (serial, trace order): responses are assembled
//      from the slot-indexed outcomes, successful leader results are
//      journaled into the cache (one flushed line each on the cache's
//      held-open runtime::Journal stream), and scripted kCacheCorrupt
//      faults are applied — all serially, so the cache file and counters
//      are replay-identical too.
//
// Determinism contract: for a fixed (config, trace, fault plan),
// response_log() is byte-identical across host thread counts and across
// replays.  Every request is accounted for in exactly one terminal status.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "fault/service_fault.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/request.hpp"

namespace simdts::service {

/// Retry policy for scripted engine crashes.
struct RetryPolicy {
  std::uint32_t max_attempts = 3;   ///< total executions (first + retries)
  /// Base backoff: the delay charged before retry k (1-based) is
  /// backoff_ms << (k - 1) — the first retry waits the base delay, every
  /// further retry doubles it.  See backoff_delay_ms() for the exact
  /// (clamped, optionally jittered) schedule.
  std::uint32_t backoff_ms = 10;
  /// Nonzero arms deterministic jitter: each delay gains a SplitMix64-derived
  /// offset in [0, base) mixed from (jitter_seed, salt, retry), so
  /// simultaneous retries of different requests decorrelate without any host
  /// RNG state.  Zero (the default) keeps the schedule exactly exponential.
  std::uint64_t jitter_seed = 0;
};

/// The backoff schedule as a pure function: the delay in milliseconds
/// charged before retry `retry` (1-based — retry 1 precedes the second
/// execution; retry 0 is meaningless and returns 0).  The base delay is
/// backoff_ms << (retry - 1) with the shift clamped at 32, so a pathological
/// attempt limit saturates instead of shifting past the width (undefined
/// behaviour).  With policy.jitter_seed != 0 a deterministic jitter in
/// [0, base) is added, derived from SplitMix64 over (jitter_seed, salt,
/// retry); `salt` identifies the retrying request (the service passes its
/// execution slot) so concurrent retries spread out.
[[nodiscard]] std::uint64_t backoff_delay_ms(const RetryPolicy& policy,
                                             std::uint32_t retry,
                                             std::uint64_t salt = 0);

struct ServiceConfig {
  AdmissionConfig admission{};
  /// Retry schedule for scripted engine crashes.  backoff_ms feeds the
  /// *virtual* backoff accounting via backoff_delay_ms(); nothing sleeps.
  RetryPolicy retry{3, 8, 0x5EEDBACCULL};
  /// Result-cache journal path; empty disables the cache entirely.
  std::filesystem::path cache_path;
  /// Host threads for the execution pass (0 = sweep_threads()).  Response
  /// logs do not depend on this — that is the point.
  unsigned threads = 0;
  /// Static threshold x for the S^x schemes.
  double static_x = 0.85;

  void validate() const;
};

/// Aggregate accounting for one run_trace() call.  Deterministic, so CI
/// soaks pin these against goldens.
struct ServiceCounters {
  std::uint64_t admitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;           ///< downshifted P or forced mode
  std::uint64_t retries = 0;            ///< extra attempts beyond the first
  std::uint64_t cache_corruptions = 0;  ///< corrupt entries caught on read

  /// One canonical `k=v` line (golden-file friendly).
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const ServiceCounters&,
                         const ServiceCounters&) = default;
};

class SolveService {
 public:
  explicit SolveService(ServiceConfig cfg);

  /// Arms a service fault plan for subsequent run_trace() calls (validated
  /// against each trace); an empty plan disarms.
  void arm_faults(fault::ServiceFaultPlan plan);

  /// Processes a whole arrival-ordered trace; returns one response per
  /// request, trace-indexed.  Counters reset per call.  The result cache
  /// persists across calls (and across services sharing a journal path).
  [[nodiscard]] std::vector<Response> run_trace(
      const std::vector<Request>& trace);

  [[nodiscard]] const ServiceCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

  /// The canonical response log: encode_response() per request, one line
  /// each, in trace order.
  [[nodiscard]] static std::string response_log(
      const std::vector<Response>& responses);

 private:
  ServiceConfig cfg_;
  fault::ServiceFaultPlan faults_;
  std::optional<ResultCache> cache_;
  ServiceCounters counters_;
};

/// Payload codec for cached results: `<nodes> <cycles> <goals>` in decimal.
[[nodiscard]] std::string encode_cache_payload(std::uint64_t nodes_expanded,
                                               std::uint64_t expand_cycles,
                                               std::uint64_t goals_found);

/// False (out untouched) on any malformed payload — a decode failure is
/// treated as a miss, same as a checksum failure.
[[nodiscard]] bool decode_cache_payload(const std::string& payload,
                                        std::uint64_t& nodes_expanded,
                                        std::uint64_t& expand_cycles,
                                        std::uint64_t& goals_found);

}  // namespace simdts::service
