// Deterministic fault injection for the solve-service layer.
//
// The engine-level FaultPlan (fault.hpp) breaks the *machine* under a run;
// this plan breaks the *service* around the runs: engines that crash and
// need retrying, cache entries that rot on disk, an admission queue whose
// drain stalls.  Where the engine plan anchors events to the simulated
// expand-cycle clock, the service plan anchors them to the **request trace**
// — event k fires on the request at trace position `request_index` — because
// the trace is the service's own deterministic clock: a replayed trace with
// the same plan produces the same crashes, the same corrupted entries, and
// the same stall window for any host thread count.
//
// Event semantics (implemented by service::SolveService, docs/service.md):
//   kEngineCrash   the first `count` execution attempts of that request
//                  crash.  The service counts them from the plan instead of
//                  running them: it charges seeded exponential backoff per
//                  retry and either solves on a later attempt or, once
//                  `count` reaches the attempt limit, answers kFailed.
//   kCacheCorrupt  after the request's result is appended to the result
//                  cache, byte `count` of the stored payload is flipped on
//                  disk.  A later verified read detects the checksum
//                  mismatch, treats the entry as a miss, and records a typed
//                  CacheCorruptionError diagnostic — never a wrong answer.
//   kQueueStall    the admission queue stops draining for `count` virtual
//                  ticks starting at that request's arrival, so later
//                  arrivals see a deeper queue (and shed sooner).
#pragma once

#include <cstdint>
#include <vector>

namespace simdts::fault {

enum class ServiceFaultKind : std::uint8_t {
  kEngineCrash,
  kCacheCorrupt,
  kQueueStall,
};

[[nodiscard]] const char* to_string(ServiceFaultKind k);

struct ServiceFaultEvent {
  /// Trace position (0-based index into the replayed request vector) the
  /// event is attached to.
  std::uint64_t request_index = 0;
  ServiceFaultKind kind = ServiceFaultKind::kEngineCrash;
  /// kEngineCrash: failing leading attempts.  kCacheCorrupt: payload byte to
  /// flip.  kQueueStall: stall duration in virtual ticks.
  std::uint32_t count = 1;

  friend bool operator==(const ServiceFaultEvent&,
                         const ServiceFaultEvent&) = default;
};

/// An immutable schedule of service-level fault events, ordered by trace
/// position (events on the same request keep their given order).
class ServiceFaultPlan {
 public:
  ServiceFaultPlan() = default;

  /// Takes ownership of `events` and stable-sorts them by request_index.
  explicit ServiceFaultPlan(std::vector<ServiceFaultEvent> events);

  /// A seeded random plan over a trace of `n_requests`: `crashes` engine
  /// crashes (1-3 failing attempts each), `corruptions` cache-corruption
  /// events, and `stalls` queue stalls (5-20 ticks each), at positions drawn
  /// with SplitMix64 — the same deterministic generator discipline as
  /// FaultPlan::random_kills.  Distinct events may land on the same request.
  [[nodiscard]] static ServiceFaultPlan random(std::uint64_t seed,
                                               std::uint64_t n_requests,
                                               std::uint32_t crashes,
                                               std::uint32_t corruptions,
                                               std::uint32_t stalls);

  [[nodiscard]] const std::vector<ServiceFaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Rejects plans that reference trace positions outside [0, n_requests),
  /// zero-attempt crash events, or zero-tick stalls.  Throws
  /// simdts::ConfigError naming the offending event's index.
  void validate(std::uint64_t n_requests) const;

  /// Scripted failing attempts for the request at trace position `index`
  /// (sum over its kEngineCrash events; 0 when none is scheduled).
  [[nodiscard]] std::uint32_t crash_attempts_for(std::uint64_t index) const;

  /// The payload byte offsets to flip after the request at `index` has been
  /// cached (one per kCacheCorrupt event on that position, in plan order).
  [[nodiscard]] std::vector<std::uint32_t> corrupt_bytes_for(
      std::uint64_t index) const;

  /// Stall ticks starting at the arrival of the request at `index` (sum over
  /// its kQueueStall events; 0 when none).
  [[nodiscard]] std::uint64_t stall_ticks_for(std::uint64_t index) const;

  friend bool operator==(const ServiceFaultPlan&,
                         const ServiceFaultPlan&) = default;

 private:
  std::vector<ServiceFaultEvent> events_;
};

}  // namespace simdts::fault
