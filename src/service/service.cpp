#include "service/service.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "lb/config.hpp"
#include "lb/engine.hpp"
#include "puzzle/fifteen.hpp"
#include "search/problem.hpp"
#include "simd/machine.hpp"
#include "synthetic/tree.hpp"

namespace simdts::service {

namespace {

/// Outcome of one executed solve (leader slot), before response assembly.
struct ExecOutcome {
  ResponseStatus status = ResponseStatus::kOk;
  std::uint64_t nodes = 0;
  std::uint64_t cycles = 0;
  std::uint64_t goals = 0;
  std::string note;
};

lb::SchemeConfig scheme_config(SchemeKind s, double x) {
  switch (s) {
    case SchemeKind::kNgpStatic: return lb::ngp_static(x);
    case SchemeKind::kGpStatic: return lb::gp_static(x);
    case SchemeKind::kNgpDp: return lb::ngp_dp();
    case SchemeKind::kGpDp: return lb::gp_dp();
    case SchemeKind::kNgpDk: return lb::ngp_dk();
    case SchemeKind::kGpDk: return lb::gp_dk();
  }
  throw InvariantError("unhandled scheme kind", "scheme_config");
}

/// Iterative deepening under a total simulated-cycle budget.  The engine
/// watchdog bounds each iteration by the *remaining* budget, so the deadline
/// is enforced mid-iteration too; a TimeoutError becomes a best-so-far
/// kBudgetExhausted outcome, never an unbounded run.
template <typename P>
ExecOutcome drive_engine(const P& problem, const Request& r,
                         std::uint32_t eff_p, SolveMode eff_mode,
                         const lb::SchemeConfig& cfg) {
  ExecOutcome out;
  simd::Machine machine(eff_p, simd::cm2_cost_model());
  lb::Engine<P> engine(problem, machine, cfg);
  search::Bound bound = problem.f_value(problem.root());
  for (;;) {
    if (r.cycle_budget != 0) {
      if (out.cycles >= r.cycle_budget) {
        out.status = ResponseStatus::kBudgetExhausted;
        std::ostringstream os;
        os << "cycle budget exhausted between iterations [budget="
           << r.cycle_budget << "]";
        out.note = os.str();
        break;
      }
      engine.set_cycle_budget(r.cycle_budget - out.cycles);
    }
    try {
      const lb::IterationStats it = eff_mode == SolveMode::kFirstSolution
                                        ? engine.run_first_solution(bound)
                                        : engine.run_iteration(bound);
      out.nodes += it.nodes_expanded;
      out.cycles += it.expand_cycles;
      out.goals += it.goals_found;
      if (it.goals_found > 0) break;
      if (it.next_bound == search::kUnbounded) break;  // space exhausted
      bound = it.next_bound;
    } catch (const TimeoutError& e) {
      // Partial iteration: the cycle count at the throw is exact; goals
      // found before the watchdog fired are still reported (best-so-far).
      out.cycles += e.cycles();
      out.goals += engine.goal_nodes().size();
      out.status = ResponseStatus::kBudgetExhausted;
      out.note = e.what();
      break;
    }
  }
  return out;
}

ExecOutcome solve_one(const Request& r, std::uint32_t eff_p,
                      SolveMode eff_mode, double static_x) {
  const lb::SchemeConfig cfg = scheme_config(r.scheme, static_x);
  switch (r.problem) {
    case ProblemKind::kSyntheticTree: {
      const synthetic::Tree tree(
          synthetic::Params{r.instance_seed, 4, 0.395,
                            static_cast<std::uint16_t>(r.instance_size)});
      return drive_engine(tree, r, eff_p, eff_mode, cfg);
    }
    case ProblemKind::kFifteenPuzzle: {
      const puzzle::FifteenPuzzle prob(puzzle::random_walk(
          r.instance_seed, static_cast<int>(r.instance_size)));
      return drive_engine(prob, r, eff_p, eff_mode, cfg);
    }
  }
  throw InvariantError("unhandled problem kind", "solve_one");
}

void append_note(std::string& note, const std::string& extra) {
  if (extra.empty()) return;
  if (!note.empty()) note += "; ";
  note += extra;
}

}  // namespace

std::string encode_cache_payload(std::uint64_t nodes_expanded,
                                 std::uint64_t expand_cycles,
                                 std::uint64_t goals_found) {
  std::ostringstream os;
  os << nodes_expanded << ' ' << expand_cycles << ' ' << goals_found;
  return os.str();
}

bool decode_cache_payload(const std::string& payload,
                          std::uint64_t& nodes_expanded,
                          std::uint64_t& expand_cycles,
                          std::uint64_t& goals_found) {
  std::istringstream is(payload);
  std::uint64_t n = 0;
  std::uint64_t c = 0;
  std::uint64_t g = 0;
  if (!(is >> n >> c >> g)) return false;
  std::string rest;
  if (is >> rest) return false;  // trailing junk
  nodes_expanded = n;
  expand_cycles = c;
  goals_found = g;
  return true;
}

void ServiceConfig::validate() const {
  admission.validate();
  if (retry.max_attempts == 0) {
    throw ConfigError("service retry policy needs at least one attempt",
                      "max_attempts=0");
  }
  if (!(static_x > 0.0) || static_x > 1.0) {
    std::ostringstream ctx;
    ctx << "static_x=" << static_x;
    throw ConfigError("service static_x must be in (0, 1]", ctx.str());
  }
}

std::string ServiceCounters::summary() const {
  std::ostringstream os;
  os << "admitted=" << admitted << " ok=" << ok << " cache_hits=" << cache_hits
     << " coalesced=" << coalesced << " budget_exhausted=" << budget_exhausted
     << " shed=" << shed << " rejected=" << rejected << " failed=" << failed
     << " degraded=" << degraded << " retries=" << retries
     << " cache_corruptions=" << cache_corruptions;
  return os.str();
}

SolveService::SolveService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  if (!cfg_.cache_path.empty()) cache_.emplace(cfg_.cache_path);
}

void SolveService::arm_faults(fault::ServiceFaultPlan plan) {
  faults_ = std::move(plan);
}

std::vector<Response> SolveService::run_trace(
    const std::vector<Request>& trace) {
  faults_.validate(trace.size());
  for (const Request& r : trace) validate(r);
  counters_ = ServiceCounters{};

  const AdmissionController admission(cfg_.admission);
  const std::vector<AdmissionDecision> decisions =
      admission.plan(trace, faults_);

  // --- pass 2: cache lookups + in-flight dedup (serial, trace order) ---
  struct Slot {
    std::size_t trace_index;
    std::uint64_t key;
    std::uint32_t eff_p;
    SolveMode eff_mode;
  };
  std::vector<Slot> slots;
  std::vector<Response> resp(trace.size());
  // Per request: the execution slot serving its key (-1 = settled already).
  std::vector<std::ptrdiff_t> exec_slot(trace.size(), -1);
  std::vector<std::uint64_t> keys(trace.size(), 0);
  std::vector<bool> keyed(trace.size(), false);
  std::map<std::uint64_t, std::size_t> pending;  // key -> leader slot

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace[i];
    const AdmissionDecision& d = decisions[i];
    Response& out = resp[i];
    out.request_id = r.id;
    out.tenant = r.tenant;
    out.queue_delay_ticks = d.queue_delay_ticks;
    if (d.outcome == AdmissionOutcome::kReject) {
      out.status = ResponseStatus::kRejected;
      out.note = d.note;
      continue;
    }
    if (d.outcome == AdmissionOutcome::kShed) {
      out.status = ResponseStatus::kShed;
      out.note = d.note;
      continue;
    }
    std::uint32_t eff_p = r.p;
    SolveMode eff_mode = r.mode;
    if (d.downshift_p) {
      eff_p = std::max(cfg_.admission.min_p, r.p / 2);
      out.downshifted_p = eff_p != r.p;
    }
    if (d.force_first_solution && r.mode == SolveMode::kExhaustive) {
      eff_mode = SolveMode::kFirstSolution;
      out.first_solution_forced = true;
    }
    out.executed_p = eff_p;
    const std::uint64_t key = canonical_key(r, eff_p, eff_mode);
    keys[i] = key;
    keyed[i] = true;
    if (cache_) {
      std::string diag;
      if (const auto payload = cache_->lookup(key, &diag)) {
        std::uint64_t nodes = 0;
        std::uint64_t cycles = 0;
        std::uint64_t goals = 0;
        if (decode_cache_payload(*payload, nodes, cycles, goals)) {
          out.status = ResponseStatus::kCacheHit;
          out.nodes_expanded = nodes;
          out.expand_cycles = cycles;
          out.goals_found = goals;
          continue;
        }
        // Verified but undecodable (foreign writer): treat as a miss.
        append_note(out.note, "cache payload undecodable; re-solving");
      }
      if (!diag.empty()) {
        ++counters_.cache_corruptions;
        append_note(out.note, diag);
      }
    }
    if (const auto it = pending.find(key); it != pending.end()) {
      exec_slot[i] = static_cast<std::ptrdiff_t>(it->second);
      continue;  // follower: coalesces onto the leader's result
    }
    exec_slot[i] = static_cast<std::ptrdiff_t>(slots.size());
    pending[key] = slots.size();
    slots.push_back(Slot{i, key, eff_p, eff_mode});
  }

  // --- pass 3: parallel execution of leaders ---
  std::vector<ExecOutcome> outcomes(slots.size());
  // Per-slot attempt counter for the scripted crashes.  Safe without a lock:
  // run_tasks retries a slot inside the worker that owns it.
  std::vector<std::uint32_t> crash_seen(slots.size(), 0);
  runtime::RetryPolicy exec_policy = cfg_.retry;
  exec_policy.backoff_ms = 0;  // backoff is charged virtually, never slept
  const std::vector<runtime::TaskReport> reports = runtime::run_tasks(
      cfg_.threads, slots.size(),
      [&](std::size_t s) {
        const Slot& sl = slots[s];
        const Request& r = trace[sl.trace_index];
        const std::uint32_t scripted =
            faults_.crash_attempts_for(sl.trace_index);
        if (++crash_seen[s] <= scripted) {
          std::ostringstream os;
          os << "scripted engine crash [request=" << r.id
             << " attempt=" << crash_seen[s] << " of " << scripted << "]";
          throw TransientError(os.str());
        }
        outcomes[s] = solve_one(r, sl.eff_p, sl.eff_mode, cfg_.static_x);
      },
      exec_policy);

  // --- pass 4: response assembly + cache writes (serial, trace order) ---
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Response& out = resp[i];
    if (exec_slot[i] >= 0) {
      const auto s = static_cast<std::size_t>(exec_slot[i]);
      const Slot& sl = slots[s];
      const runtime::TaskReport& rep = reports[s];
      const ExecOutcome& oc = outcomes[s];
      const bool leader = sl.trace_index == i;
      if (leader) {
        out.attempts = rep.attempts;
        for (std::uint32_t k = 1; k < rep.attempts; ++k) {
          out.backoff_ms_total += runtime::backoff_delay_ms(cfg_.retry, k, s);
        }
        counters_.retries += rep.attempts - 1;
      }
      switch (rep.status) {
        case runtime::TaskStatus::kOk: {
          out.status = leader ? oc.status : ResponseStatus::kCoalesced;
          out.nodes_expanded = oc.nodes;
          out.expand_cycles = oc.cycles;
          out.goals_found = oc.goals;
          if (leader) {
            append_note(out.note, oc.note);
          } else {
            std::ostringstream os;
            os << "coalesced with request " << trace[sl.trace_index].id << " ("
               << to_string(oc.status) << ")";
            append_note(out.note, os.str());
          }
          break;
        }
        case runtime::TaskStatus::kTransient: {
          out.status = ResponseStatus::kFailed;
          std::ostringstream os;
          os << (leader ? "retries exhausted: "
                        : "coalesced leader's retries exhausted: ")
             << rep.message;
          append_note(out.note, os.str());
          break;
        }
        case runtime::TaskStatus::kTimeout: {
          // drive_engine converts watchdog timeouts itself; this arm is
          // defensive, for a timeout escaping a future execution path.
          out.status = ResponseStatus::kBudgetExhausted;
          append_note(out.note, rep.message);
          break;
        }
        case runtime::TaskStatus::kFailed: {
          out.status = ResponseStatus::kFailed;
          append_note(out.note,
                      leader ? rep.message
                             : "coalesced leader failed: " + rep.message);
          break;
        }
      }
      if (leader && cache_ && rep.status == runtime::TaskStatus::kOk &&
          oc.status == ResponseStatus::kOk) {
        cache_->insert(sl.key,
                       encode_cache_payload(oc.nodes, oc.cycles, oc.goals));
      }
    }
    // Scripted cache corruption fires after the request's cache interaction,
    // keyed to its trace position; it damages whatever entry currently holds
    // the request's content address (a no-op when none exists yet).
    if (cache_ && keyed[i]) {
      for (const std::uint32_t b : faults_.corrupt_bytes_for(i)) {
        cache_->corrupt_payload_byte(keys[i], b);
      }
    }
  }

  // --- accounting ---
  for (const Response& r : resp) {
    switch (r.status) {
      case ResponseStatus::kOk: ++counters_.ok; break;
      case ResponseStatus::kCacheHit: ++counters_.cache_hits; break;
      case ResponseStatus::kCoalesced: ++counters_.coalesced; break;
      case ResponseStatus::kBudgetExhausted:
        ++counters_.budget_exhausted;
        break;
      case ResponseStatus::kShed: ++counters_.shed; break;
      case ResponseStatus::kRejected: ++counters_.rejected; break;
      case ResponseStatus::kFailed: ++counters_.failed; break;
    }
    if (r.downshifted_p || r.first_solution_forced) ++counters_.degraded;
  }
  counters_.admitted =
      trace.size() - counters_.shed - counters_.rejected;
  return resp;
}

std::string SolveService::response_log(const std::vector<Response>& responses) {
  std::string log;
  for (const Response& r : responses) {
    log += encode_response(r);
    log += '\n';
  }
  return log;
}

}  // namespace simdts::service
