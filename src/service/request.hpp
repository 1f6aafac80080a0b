// The solve-service request/response schema.
//
// A Request is everything a tenant submits: which problem instance to solve,
// with which load-balancing scheme on how many PEs, in which mode, under
// which simulated-cycle deadline — plus the envelope the service itself
// needs (id, tenant, arrival tick, priority class).  A Response accounts for
// what actually happened to the request: solved, served from cache,
// coalesced onto an identical in-flight solve, budget-exhausted with
// best-so-far results, shed under overload, rejected at admission, or
// failed.  Every request in a trace gets exactly one response — nothing is
// silently dropped — and encode_response() renders it as one canonical line
// so a replayed trace's response log can be compared byte-for-byte.
//
// canonical_key() is the content address used by the result cache and the
// in-flight dedup: it hashes only the fields that determine the computation
// (problem, instance, scheme, P, mode, budget) and *excludes* the envelope
// (id, tenant, arrival, priority, cost hint), so identical work submitted by
// different tenants shares one cache entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace simdts::service {

/// Shedding order under overload: batch work goes first, interactive last.
enum class Priority : std::uint8_t {
  kBatch = 0,
  kStandard = 1,
  kInteractive = 2,
};

enum class ProblemKind : std::uint8_t {
  kSyntheticTree = 0,
  kFifteenPuzzle = 1,
};

/// The six Table 1 scheme combinations, as a closed enum so a request is a
/// plain value (the service maps these onto the lb::SchemeConfig factories).
enum class SchemeKind : std::uint8_t {
  kNgpStatic = 0,
  kGpStatic = 1,
  kNgpDp = 2,
  kGpDp = 3,
  kNgpDk = 4,
  kGpDk = 5,
};

enum class SolveMode : std::uint8_t {
  kExhaustive = 0,      ///< full iterative deepening to the solution depth
  kFirstSolution = 1,   ///< quit at the first goal-finding expansion cycle
};

[[nodiscard]] const char* to_string(Priority p);
[[nodiscard]] const char* to_string(ProblemKind k);
[[nodiscard]] const char* to_string(SchemeKind s);
[[nodiscard]] const char* to_string(SolveMode m);

struct Request {
  // --- envelope (excluded from the content address) ---
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  /// Arrival time on the service's virtual clock; a trace must be sorted by
  /// nondecreasing arrival_tick.
  std::uint64_t arrival_tick = 0;
  Priority priority = Priority::kStandard;
  /// Admission-control service-time estimate in simulated cycles (converted
  /// to virtual ticks by AdmissionConfig::cycles_per_tick).
  std::uint64_t cost_hint = 1024;

  // --- content (the computation; hashed by canonical_key) ---
  ProblemKind problem = ProblemKind::kSyntheticTree;
  std::uint64_t instance_seed = 1;
  /// Problem scale: synthetic tree depth cap, or 15-puzzle scramble length.
  std::uint32_t instance_size = 10;
  SchemeKind scheme = SchemeKind::kGpDk;
  std::uint32_t p = 8;  ///< requested machine size (power of two)
  SolveMode mode = SolveMode::kExhaustive;
  /// Simulated-cycle deadline (expand cycles); 0 = unbounded.
  std::uint64_t cycle_budget = 0;

  friend bool operator==(const Request&, const Request&) = default;
};

/// Rejects requests that can never execute: p not a power of two or outside
/// [2, 4096], zero instance_size, zero cost_hint.  Throws simdts::ConfigError
/// naming the field and the request id.
void validate(const Request& r);

/// Content address of the computation the request describes, under the
/// *effective* parameters the service chose (admission may downshift P or
/// force first-solution mode; the downgraded run is a different computation
/// and must not alias the full one in the cache).
[[nodiscard]] std::uint64_t canonical_key(const Request& r,
                                          std::uint32_t effective_p,
                                          SolveMode effective_mode);

/// canonical_key under the request's own parameters.
[[nodiscard]] std::uint64_t canonical_key(const Request& r);

enum class ResponseStatus : std::uint8_t {
  kOk = 0,               ///< solved (possibly after retries)
  kCacheHit = 1,         ///< served from the verified result cache
  kCoalesced = 2,        ///< shared an identical in-flight solve's result
  kBudgetExhausted = 3,  ///< deadline hit; stats are best-so-far, not final
  kShed = 4,             ///< admitted, then evicted under overload
  kRejected = 5,         ///< refused at admission (queue full / tenant quota)
  kFailed = 6,           ///< retries exhausted or a hard failure
};

[[nodiscard]] const char* to_string(ResponseStatus s);

struct Response {
  std::uint64_t request_id = 0;
  std::uint32_t tenant = 0;
  ResponseStatus status = ResponseStatus::kOk;
  /// Executions of the solve body (0 when never executed: shed, rejected,
  /// cache hit, coalesced).
  std::uint32_t attempts = 0;
  /// Total backoff charged for retries, from the pure schedule
  /// service::backoff_delay_ms (the service never sleeps host time).
  std::uint64_t backoff_ms_total = 0;
  std::uint64_t queue_delay_ticks = 0;
  /// Machine size actually used (0 when never executed).
  std::uint32_t executed_p = 0;
  bool downshifted_p = false;         ///< degraded: P halved under load
  bool first_solution_forced = false; ///< degraded: exhaustive -> first-sol
  std::uint64_t nodes_expanded = 0;
  std::uint64_t expand_cycles = 0;
  std::uint64_t goals_found = 0;
  /// Human-readable accounting: shed/reject reason, cache-corruption
  /// diagnostic, coalescing note, or failure message.  Empty when clean.
  std::string note;

  friend bool operator==(const Response&, const Response&) = default;
};

/// One canonical line (no trailing newline): every field in a fixed order,
/// the free-text note last.  Byte-identical responses encode byte-identically.
[[nodiscard]] std::string encode_response(const Response& r);

/// A seeded random request trace: n requests over `tenants` tenants with
/// SplitMix64-drawn envelopes and content (nondecreasing arrival ticks,
/// mixed priorities, both problem kinds, all six schemes, a spread of
/// machine sizes, modes, and budgets).  Deterministic: same (seed, n,
/// tenants) yields the same trace.
[[nodiscard]] std::vector<Request> random_trace(std::uint64_t seed,
                                                std::size_t n,
                                                std::uint32_t tenants = 4);

}  // namespace simdts::service
