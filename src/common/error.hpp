// Typed errors for the simdts library.
//
// Bench drivers and the sweeps need to tell failure classes apart: a
// configuration that can never work (reject up front, print the offending
// parameter) and a simulation that blew its watchdog budget (report a typed
// timeout result and move on).  A bare assert() gives none of that — it
// kills the whole sweep with no context — so everything the library throws
// derives from simdts::Error and carries enough context (scheme name,
// machine size, simulated cycle) to print an actionable one-line diagnostic.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace simdts {

/// Base class of everything the library throws deliberately.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message) : std::runtime_error(message) {}
};

/// A parameter value that can never produce a meaningful run (x outside
/// (0, 1], negative cost, zero machine size, ...).  Thrown at construction
/// time so bad values fail loudly instead of surfacing as NaN efficiencies
/// deep inside a table.
class ConfigError : public Error {
 public:
  ConfigError(const std::string& what, const std::string& context)
      : Error(what + " [" + context + "]") {}
};

/// A broken internal invariant or API misuse that up-front validation should
/// have made unreachable (a Table row grown past its width, a Board with no
/// blank tile).  Reaching it is a bug in the caller, not bad user input, but
/// it still reports with context instead of aborting the host process.
class InvariantError : public Error {
 public:
  InvariantError(const std::string& what, const std::string& context)
      : Error(what + " [" + context + "]") {}
};

/// An engine invariant violated at run time (a transfer from a non-splittable
/// donor, work lost during fault recovery, every PE dead with work
/// outstanding).  Carries the scheme name, machine size, and simulated cycle.
class EngineError : public Error {
 public:
  EngineError(const std::string& what, const std::string& scheme,
              std::uint32_t p, std::uint64_t cycle)
      : Error(format(what, scheme, p, cycle)) {}

 private:
  static std::string format(const std::string& what, const std::string& scheme,
                            std::uint32_t p, std::uint64_t cycle) {
    std::ostringstream os;
    os << what << " [scheme=" << scheme << " P=" << p << " cycle=" << cycle
       << "]";
    return os.str();
  }
};

/// A fault-recovery invariant violation (subclassed so tests can tell the
/// fault machinery's failures from ordinary engine bugs).
class FaultError : public EngineError {
 public:
  using EngineError::EngineError;
};

/// A simulation exceeded its watchdog budget of expand cycles.  The sweep
/// runner converts this into a typed per-task timeout result instead of
/// letting one pathological grid point hang the whole sweep.
class TimeoutError : public Error {
 public:
  TimeoutError(const std::string& scheme, std::uint32_t p,
               std::uint64_t cycles, std::uint64_t budget)
      : Error(format(scheme, p, cycles, budget)), cycles_(cycles),
        budget_(budget) {}

  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }

 private:
  static std::string format(const std::string& scheme, std::uint32_t p,
                            std::uint64_t cycles, std::uint64_t budget) {
    std::ostringstream os;
    os << "simulated-cycle budget exceeded [scheme=" << scheme << " P=" << p
       << " cycles=" << cycles << " budget=" << budget << "]";
    return os.str();
  }

  std::uint64_t cycles_;
  std::uint64_t budget_;
};

/// The solve service refused (or shed) a request because accepting it would
/// exceed a capacity bound: the admission queue is full, or the tenant is
/// over its quota.  Overload is a *load* condition, not a bug — the caller
/// is expected to back off and resubmit — so the message names the bound
/// that was hit and the request it was hit by, never a stack of internals.
class OverloadError : public Error {
 public:
  OverloadError(const std::string& what, std::uint64_t request_id,
                std::uint32_t tenant)
      : Error(format(what, request_id, tenant)) {}

 private:
  static std::string format(const std::string& what, std::uint64_t request_id,
                            std::uint32_t tenant) {
    std::ostringstream os;
    os << what << " [request=" << request_id << " tenant=" << tenant << "]";
    return os.str();
  }
};

/// A result-cache entry failed its verified read (checksum mismatch, torn
/// payload).  Never surfaced as a wrong answer: the service treats the entry
/// as a miss, re-solves, and records this diagnostic in the response so the
/// corruption is observable.  `key()` is the content-address of the bad
/// entry.
class CacheCorruptionError : public Error {
 public:
  CacheCorruptionError(std::uint64_t key, const std::string& what)
      : Error(format(key, what)), key_(key) {}

  [[nodiscard]] std::uint64_t key() const noexcept { return key_; }

 private:
  static std::string format(std::uint64_t key, const std::string& what) {
    std::ostringstream os;
    os << "cache entry failed verified read [key=" << std::hex << key
       << std::dec << "]: " << what;
    return os.str();
  }

  std::uint64_t key_;
};

/// A shadow-instrumentation check failed (SimdSan, compiled in only under
/// SIMDTS_SANITIZE).  Unlike EngineError — which reports invariants the
/// engine itself can observe — this reports violations of the *disciplines*
/// that make the simulation deterministic: word-granularity thread ownership,
/// dead-lane stack hygiene, single-donor matching, tail-bits-zero planes,
/// census/flag-plane agreement, fault-plan ordering.  `invariant()` names the
/// broken discipline so mutation tests can assert the sanitizer fired for the
/// *right* reason, not merely that it fired.
class SanitizerError : public Error {
 public:
  SanitizerError(const std::string& invariant, const std::string& what)
      : Error("[sanitizer:" + invariant + "] " + what), invariant_(invariant) {}

  [[nodiscard]] const std::string& invariant() const noexcept {
    return invariant_;
  }

 private:
  std::string invariant_;
};

}  // namespace simdts
