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
//      runtime::run_tasks into slot-indexed outcomes.  Scripted
//      kEngineCrash faults throw simdts::TransientError on the leading
//      attempts; run_tasks retries up to the policy limit.  Deadlines are
//      simulated-cycle budgets enforced by the engine watchdog — a
//      TimeoutError is converted to a kBudgetExhausted response carrying
//      best-so-far stats, never a hang.  Backoff is charged on the virtual
//      clock from the pure runtime::backoff_delay_ms schedule; the service
//      never sleeps host time.
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
#include "runtime/sweep.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/request.hpp"

namespace simdts::service {

struct ServiceConfig {
  AdmissionConfig admission{};
  /// Retry schedule for transient (scripted-crash) failures.  backoff_ms
  /// feeds the *virtual* backoff accounting via backoff_delay_ms(); the
  /// execution pool itself runs with host sleeping disabled.
  runtime::RetryPolicy retry{3, 8, 0x5EEDBACCULL};
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
