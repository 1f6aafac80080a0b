// service-replay: a seeded 200k-request trace through one SolveService and
// its result cache, as two consecutive run_trace halves.
#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "expected.hpp"
#include "fault/fault.hpp"
#include "fault/service_fault.hpp"
#include "lb/config.hpp"
#include "lb/engine.hpp"
#include "probe.hpp"
#include "puzzle/board.hpp"
#include "puzzle/fifteen.hpp"
#include "runtime/sweep.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"
#include "stats.hpp"
#include "synthetic/tree.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace simdts;
using service::Request;
using service::Response;
using service::ResponseStatus;

constexpr std::size_t kTraceSize = 200000;

/// Sized near saturation for random_trace's arrival rate: a few hundred
/// requests shed or rejected per trace and some degraded, so admission's
/// overload paths run without dominating the trace.
service::AdmissionConfig admission_config() {
  service::AdmissionConfig a;
  a.engines = 2;
  a.queue_capacity = 12;
  a.tenant_quota = 8;
  a.cycles_per_tick = 512;
  a.degrade_depth = 10;
  a.min_p = 2;
  return a;
}

service::ServiceConfig service_config(const Options& opt, unsigned threads) {
  service::ServiceConfig c;
  c.admission = admission_config();
  c.cache_path = opt.work_dir / "service_cache.journal";
  c.threads = threads;
  return c;
}

/// A half's canonical output: its response log (SolveService::response_log,
/// digested line by line rather than built whole) and counters.
std::uint64_t digest(const std::vector<Response>& resp,
                     const service::ServiceCounters& c) {
  std::uint64_t h = fnv1a("");
  for (const Response& x : resp) {
    h = fnv1a("\n", fnv1a(service::encode_response(x), h));
  }
  return fnv1a(c.summary(), h);
}

struct Half {
  std::vector<Request> trace;
  std::vector<Response> resp;
  service::ServiceCounters counters;
  std::uint64_t digest = 0;
  double plan_s = 0.0;
};

struct ServiceOutcome {
  Half half[2];
  Rep rep;
};

/// Set-up (the trace from the seed, an empty cache, the service), then the
/// two timed run_trace calls.  With `time_plans`, each half's admission
/// plan is also timed on its own, outside the timed calls.
ServiceOutcome service_once(const Options& opt, unsigned threads,
                            bool time_plans) {
  ServiceOutcome o;
  const auto t0 = Clock::now();
  std::vector<Request> trace = make_trace(trace_seed(opt.seed), kTraceSize);
  const auto mid = trace.begin() + static_cast<std::ptrdiff_t>(kTraceSize / 2);
  o.half[0].trace.assign(trace.begin(), mid);
  o.half[1].trace.assign(mid, trace.end());
  const service::ServiceConfig cfg = service_config(opt, threads);
  std::filesystem::remove(cfg.cache_path);
  service::SolveService svc(cfg);
  o.rep.setup_s = seconds_since(t0);
  for (Half& h : o.half) {
    if (time_plans) {
      const service::AdmissionController admission(cfg.admission);
      h.plan_s = time_call([&] {
                   (void)admission.plan(h.trace, fault::ServiceFaultPlan{});
                 }).wall_s;
    }
    const Timed t = time_call([&] { h.resp = svc.run_trace(h.trace); });
    h.counters = svc.counters();
    o.rep.wall_s += t.wall_s;
    o.rep.cpu_s += t.cpu_s;
    o.rep.requests += static_cast<double>(h.trace.size());
    for (const Response& x : h.resp) {
      if (x.attempts > 0) o.rep.nodes += static_cast<double>(x.nodes_expanded);
    }
    h.digest = digest(h.resp, h.counters);
  }
  std::filesystem::remove(cfg.cache_path);
  return o;
}

service::SolveMode effective_mode(const Request& q, const Response& x) {
  return x.first_solution_forced ? service::SolveMode::kFirstSolution : q.mode;
}

/// Output checks that hold for any seed: one response per request in trace
/// order, no failed solve, and a cache that never disagrees with the solve
/// it stored — every answer for one content address carries the same
/// result.  Returns the number of requests that broke a check.
std::uint64_t check_invariants(const ServiceOutcome& o, Result& r) {
  std::uint64_t bad = 0;
  std::unordered_map<std::uint64_t,
                     std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
      answers;
  answers.reserve(o.half[0].trace.size());
  for (const Half& h : o.half) {
    if (h.resp.size() != h.trace.size()) {
      r.mismatch("service-replay: " + std::to_string(h.resp.size()) +
                 " responses for " + std::to_string(h.trace.size()) +
                 " requests");
      bad += h.trace.size();
      continue;
    }
    for (std::size_t i = 0; i < h.resp.size(); ++i) {
      const Request& q = h.trace[i];
      const Response& x = h.resp[i];
      if (x.request_id != q.id || x.status == ResponseStatus::kFailed) {
        r.mismatch("service-replay: " + service::encode_response(x));
        ++bad;
        continue;
      }
      if (x.status != ResponseStatus::kOk &&
          x.status != ResponseStatus::kCacheHit &&
          x.status != ResponseStatus::kCoalesced) {
        continue;
      }
      const std::uint64_t key =
          service::canonical_key(q, x.executed_p, effective_mode(q, x));
      const auto got =
          std::make_tuple(x.nodes_expanded, x.expand_cycles, x.goals_found);
      const auto [it, fresh] = answers.emplace(key, got);
      if (!fresh && it->second != got) {
        r.mismatch("service-replay: request " + std::to_string(q.id) +
                   " disagrees with an earlier answer for its content: " +
                   service::encode_response(x));
        ++bad;
      }
    }
  }
  return bad;
}

// --- the traced re-execution -------------------------------------------------

lb::SchemeConfig scheme_config(service::SchemeKind s, double x) {
  switch (s) {
    case service::SchemeKind::kNgpStatic: return lb::ngp_static(x);
    case service::SchemeKind::kGpStatic: return lb::gp_static(x);
    case service::SchemeKind::kNgpDp: return lb::ngp_dp();
    case service::SchemeKind::kGpDp: return lb::gp_dp();
    case service::SchemeKind::kNgpDk: return lb::ngp_dk();
    case service::SchemeKind::kGpDk: return lb::gp_dk();
  }
  throw InvariantError("unhandled scheme kind", "perfbench");
}

struct Replayed {
  ResponseStatus status = ResponseStatus::kOk;
  std::uint64_t nodes = 0;
  std::uint64_t cycles = 0;
  std::uint64_t goals = 0;
  lb::IterationStats iterations;  ///< sum over completed iterations
};

/// One executed request solved again from outside the service — the
/// service's documented semantics (iterative deepening under a total
/// simulated-cycle budget) over the expand-probed problem.
template <typename P>
Replayed replay(const P& problem, const Request& q, std::uint32_t p,
                service::SolveMode mode, const lb::SchemeConfig& cfg) {
  Replayed out;
  simd::Machine machine(p, simd::cm2_cost_model());
  lb::Engine<P> engine(problem, machine, cfg);
  search::Bound bound = problem.f_value(problem.root());
  for (;;) {
    if (q.cycle_budget != 0) {
      if (out.cycles >= q.cycle_budget) {
        out.status = ResponseStatus::kBudgetExhausted;
        break;
      }
      engine.set_cycle_budget(q.cycle_budget - out.cycles);
    }
    try {
      const lb::IterationStats it = mode == service::SolveMode::kFirstSolution
                                        ? engine.run_first_solution(bound)
                                        : engine.run_iteration(bound);
      out.iterations += it;
      out.nodes += it.nodes_expanded;
      out.cycles += it.expand_cycles;
      out.goals += it.goals_found;
      if (it.goals_found > 0 || it.next_bound == search::kUnbounded) break;
      bound = it.next_bound;
    } catch (const TimeoutError& e) {
      out.cycles += e.cycles();
      out.goals += engine.goal_nodes().size();
      out.status = ResponseStatus::kBudgetExhausted;
      break;
    }
  }
  return out;
}

Replayed replay_request(const Request& q, const Response& x, double static_x,
                        ExpandProbe& probe) {
  const lb::SchemeConfig cfg = scheme_config(q.scheme, static_x);
  const service::SolveMode mode = effective_mode(q, x);
  if (q.problem == service::ProblemKind::kSyntheticTree) {
    const synthetic::Tree tree(synthetic::Params{
        q.instance_seed, 4, 0.395,
        static_cast<std::uint16_t>(q.instance_size)});
    return replay(TimedProblem<synthetic::Tree>(tree, probe,
                                                Domain::kSynthetic),
                  q, x.executed_p, mode, cfg);
  }
  const puzzle::FifteenPuzzle prob(puzzle::random_walk(
      q.instance_seed, static_cast<int>(q.instance_size)));
  return replay(TimedProblem<puzzle::FifteenPuzzle>(prob, probe,
                                                    Domain::kPuzzle),
                q, x.executed_p, mode, cfg);
}

}  // namespace

std::vector<Request> make_trace(std::uint64_t seed, std::size_t n) {
  std::vector<Request> trace = service::random_trace(seed, n);
  // A second stream from the same seed picks which requests reuse which
  // hot-set content; the envelope (id, tenant, arrival, priority) stays.
  std::uint64_t state = seed ^ 0x486f7453657421ULL;
  for (std::size_t i = kHotSet; i < n; ++i) {
    const std::uint64_t coin = fault::splitmix64(state);
    const std::uint64_t pick = fault::splitmix64(state) % kHotSet;
    if ((coin & 1) == 0) continue;
    const Request& src = trace[pick];
    Request& dst = trace[i];
    dst.cost_hint = src.cost_hint;
    dst.problem = src.problem;
    dst.instance_seed = src.instance_seed;
    dst.instance_size = src.instance_size;
    dst.scheme = src.scheme;
    dst.p = src.p;
    dst.mode = src.mode;
    dst.cycle_budget = src.cycle_budget;
  }
  return trace;
}

std::uint64_t trace_seed(std::uint64_t seed) {
  return seed % std::size(expected::kServiceGoldens);
}

void run_service_replay(const Options& opt, Result& r) {
  const expected::ServiceGolden& golden =
      expected::kServiceGoldens[trace_seed(opt.seed)];
  r.info.push_back("seed " + std::to_string(opt.seed) + ": trace from seed " +
                   std::to_string(golden.seed) + " (the seed modulo " +
                   std::to_string(std::size(expected::kServiceGoldens)) +
                   "), whose response-log digests are pinned");
  const auto checked = [&](const ServiceOutcome& o, const std::string& what) {
    const std::uint64_t want[2] = {golden.first_half, golden.second_half};
    for (int h = 0; h < 2; ++h) {
      r.attempted += o.half[h].trace.size();
      if (o.half[h].digest != want[h]) {
        r.mismatch(what + ": half " + std::to_string(h + 1) +
                   " response-log digest " + std::to_string(o.half[h].digest) +
                   ", want " + std::to_string(want[h]) + " (" +
                   o.half[h].counters.summary() + ")");
        r.failed += o.half[h].trace.size();
      }
    }
    r.failed += check_invariants(o, r);
  };

  if (!opt.trace) {
    const auto reps = run_reps(opt, [&] {
      const ServiceOutcome o = service_once(opt, kThreads, false);
      checked(o, "service-replay");
      return o.rep;
    });
    summarize_reps(reps, r);
    return;
  }

  zero_layer_metrics(r);
  checked(service_once(opt, kThreads, false), "service-replay (warm-up)");
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<double> plan_s;
  ServiceOutcome last;
  for (int i = 0; i < 2; ++i) {
    const ServiceOutcome o = service_once(opt, kThreads, false);
    checked(o, "service-replay (untraced)");
    plain.push_back(o.rep);
    last = service_once(opt, kThreads, true);
    checked(last, "service-replay (traced)");
    traced.push_back(last.rep);
    plan_s.push_back(last.half[0].plan_s + last.half[1].plan_s);
  }
  checked(service_once(opt, 1, false), "service-replay (1 host thread)");

  // Counts and simulated latency, from the last replay.
  const std::uint64_t cycles_per_tick = admission_config().cycles_per_tick;
  std::vector<std::uint64_t> latency;
  double executed = 0;
  double hits = 0;
  double admitted = 0;
  double requests = 0;
  service::ServiceCounters sum;
  for (const Half& h : last.half) {
    const service::ServiceCounters& c = h.counters;
    sum.coalesced += c.coalesced;
    sum.degraded += c.degraded;
    sum.shed += c.shed;
    sum.rejected += c.rejected;
    sum.budget_exhausted += c.budget_exhausted;
    sum.failed += c.failed;
    hits += static_cast<double>(c.cache_hits);
    admitted += static_cast<double>(c.admitted);
    requests += static_cast<double>(h.trace.size());
    for (const Response& x : h.resp) {
      if (x.attempts == 0) continue;
      executed += 1;
      latency.push_back(x.queue_delay_ticks * cycles_per_tick +
                        x.expand_cycles);
    }
  }
  const double refused = static_cast<double>(
      sum.shed + sum.rejected + sum.failed + sum.budget_exhausted);
  std::sort(latency.begin(), latency.end());
  r.metrics["service.executed"] = executed;
  r.metrics["service.coalesced"] = static_cast<double>(sum.coalesced);
  r.metrics["service.degraded"] = static_cast<double>(sum.degraded);
  r.metrics["service.shed"] = static_cast<double>(sum.shed);
  r.metrics["service.rejected"] = static_cast<double>(sum.rejected);
  r.metrics["service.budget_exhausted"] =
      static_cast<double>(sum.budget_exhausted);
  r.metrics["service.cache_hit_ratio"] = admitted > 0 ? hits / admitted : 0.0;
  r.metrics["fail_share"] = refused / requests;
  r.metrics["service.sim_latency_p50_cycles"] =
      static_cast<double>(nearest_rank(latency, 0.5));
  r.metrics["service.sim_latency_p999_cycles"] =
      static_cast<double>(nearest_rank(latency, 0.999));
  r.metrics["service.sim_latency_samples"] =
      static_cast<double>(latency.size());
  r.info.push_back(
      "simulated latency over " + std::to_string(latency.size()) +
      " executed requests; " +
      std::to_string(samples_beyond(latency.size(), 0.999)) +
      " samples beyond p99.9; highest percentile with >= 10 beyond: " +
      std::to_string(100.0 * highest_supported_quantile(latency.size())));

  // The result cache on this run's own keys: insert every solved result
  // into an empty cache, then look each one up.
  std::vector<std::pair<std::uint64_t, std::string>> entries;
  for (const Half& h : last.half) {
    for (std::size_t i = 0; i < h.resp.size(); ++i) {
      const Response& x = h.resp[i];
      if (x.status != ResponseStatus::kOk || x.attempts == 0) continue;
      entries.emplace_back(
          service::canonical_key(h.trace[i], x.executed_p,
                                 effective_mode(h.trace[i], x)),
          service::encode_cache_payload(x.nodes_expanded, x.expand_cycles,
                                        x.goals_found));
    }
  }
  const std::filesystem::path probe_path = opt.work_dir / "probe_cache.journal";
  std::filesystem::remove(probe_path);
  double insert_s = 0.0;
  double lookup_s = 0.0;
  {
    service::ResultCache cache(probe_path);
    insert_s = time_call([&] {
                 for (const auto& [k, v] : entries) cache.insert(k, v);
               }).wall_s;
    std::uint64_t found = 0;
    lookup_s = time_call([&] {
                 for (const auto& [k, v] : entries) {
                   found += cache.lookup(k).has_value() ? 1 : 0;
                 }
               }).wall_s;
    if (!r.expect_eq("service-replay: cache probe hits", found,
                     static_cast<std::uint64_t>(entries.size()))) {
      ++r.failed;
    }
    ++r.attempted;
  }
  std::filesystem::remove(probe_path);
  const double n_entries = std::max<double>(1.0, static_cast<double>(entries.size()));
  const double lookup_ns = lookup_s * 1e9 / n_entries;
  const double insert_ns = insert_s * 1e9 / n_entries;
  r.metrics["service.cache.lookup_ns"] = lookup_ns;
  r.metrics["service.cache.insert_ns"] = insert_ns;
  const double plan = median(plan_s);
  r.metrics["service.admission.plan_s"] = plan;
  std::vector<double> walls;
  for (const Rep& x : plain) walls.push_back(x.wall_s);
  r.metrics["service.exec_s_est"] =
      median(walls) - plan - admitted * lookup_ns * 1e-9 -
      static_cast<double>(entries.size()) * insert_ns * 1e-9;

  // Every executed request solved again through the expand probe, on the
  // service's execution thread count; each must reproduce its response.
  std::vector<std::pair<const Request*, const Response*>> jobs;
  for (const Half& h : last.half) {
    for (std::size_t i = 0; i < h.resp.size(); ++i) {
      if (h.resp[i].attempts > 0) jobs.emplace_back(&h.trace[i], &h.resp[i]);
    }
  }
  std::vector<Replayed> replayed(jobs.size());
  ExpandProbe probe;
  const double static_x = service_config(opt, kThreads).static_x;
  const double replay_s = time_call([&] {
                            runtime::SweepRunner runner(kThreads);
                            runner.run(jobs.size(), [&](std::size_t j) {
                              replayed[j] = replay_request(
                                  *jobs[j].first, *jobs[j].second, static_x,
                                  probe);
                            });
                          }).wall_s;
  lb::IterationStats iters;
  std::uint64_t diverged = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Response& x = *jobs[j].second;
    const Replayed& y = replayed[j];
    iters += y.iterations;
    ++r.attempted;
    if (y.status != x.status || y.nodes != x.nodes_expanded ||
        y.cycles != x.expand_cycles || y.goals != x.goals_found) {
      if (++diverged <= 5) {
        r.mismatch("service-replay: re-solved request differs: " +
                   service::encode_response(x));
      }
      ++r.failed;
    }
  }
  if (diverged > 5) {
    r.mismatch("service-replay: " + std::to_string(diverged) +
               " re-solved requests differ in all");
  }
  const double mean_busy = set_probe_metrics(probe, kThreads, r);
  r.metrics["lb.engine.run_s"] = replay_s;
  r.metrics["lb.engine.non_expand_s"] = replay_s - mean_busy;
  r.metrics["lb.expand_cycles"] = static_cast<double>(iters.expand_cycles);
  r.metrics["lb.lb_phases"] = static_cast<double>(iters.lb_phases);
  r.metrics["lb.lb_rounds"] = static_cast<double>(iters.lb_rounds);
  r.metrics["lb.transfers"] = static_cast<double>(iters.transfers);
  r.metrics["lb.efficiency"] = iters.efficiency();
  // The service's machines are at most 16 PEs: one plane word.
  const double dispatch = pool_dispatch_ns(kThreads, 1);
  r.metrics["simd.pool.dispatch_ns"] = dispatch;
  r.metrics["simd.pool.dispatch_s_est"] =
      dispatch * 1e-9 * static_cast<double>(iters.expand_cycles);

  std::vector<double> plain_rate;
  std::vector<double> traced_rate;
  for (const Rep& x : plain) plain_rate.push_back(x.requests / x.wall_s);
  for (const Rep& x : traced) traced_rate.push_back(x.requests / x.wall_s);
  r.metrics["trace_overhead_pct"] = overhead_pct(plain_rate, traced_rate);
  r.info.push_back(
      "service.exec_s_est is computed: run_trace wall minus admission plan "
      "and cache lookup/insert estimates; lb.* and the expand metrics come "
      "from re-solving every executed request through the expand probe "
      "(lb.* counts completed iterations only)");
}

}  // namespace perfbench
