// engine-megap and engine-paper: one engine call each, timed from outside.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "expected.hpp"
#include "lb/config.hpp"
#include "lb/engine.hpp"
#include "probe.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "search/serial.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"
#include "simd/thread_pool.hpp"
#include "stats.hpp"
#include "synthetic/tree.hpp"
#include "synthetic/workloads.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace simdts;

constexpr std::uint32_t kMegaP = 1u << 18;
constexpr std::uint32_t kPaperP = 8192;

const synthetic::SyntheticWorkload& megap_tree() {
  for (const auto& wl : synthetic::iso_workloads()) {
    if (std::strcmp(wl.name, "syn-41M") == 0) return wl;
  }
  throw InvariantError("syn-41M missing from the iso ladder", "perfbench");
}

const puzzle::PuzzleWorkload& paper_instance() {
  for (const auto& wl : puzzle::paper_workloads()) {
    if (std::strcmp(wl.name, "w-16.1M") == 0) return wl;
  }
  throw InvariantError("w-16.1M missing from the paper workloads",
                       "perfbench");
}

/// What one engine call produced, with its host timings.
template <typename StatsT>
struct Outcome {
  StatsT stats;
  Rep rep;
  double stack_avg_per_lane = 0.0;
  double stack_peak = 0.0;
};

/// Sets up a machine and engine over `problem` and times `call(engine)`.
/// `pool_threads == 0` runs without a pool, as the paper's tables do.
template <typename StatsT, typename Prob, typename Call>
Outcome<StatsT> engine_once(const Prob& problem, std::uint32_t p,
                            unsigned pool_threads, lb::SchemeConfig cfg,
                            Call&& call,
                            std::chrono::steady_clock::time_point t0) {
  Outcome<StatsT> o;
  std::unique_ptr<simd::ThreadPool> pool;
  if (pool_threads != 0) pool = std::make_unique<simd::ThreadPool>(pool_threads);
  simd::Machine machine(p, simd::cm2_cost_model(), pool.get());
  lb::Engine<Prob> engine(problem, machine, cfg);
  o.rep.setup_s = seconds_since(t0);
  const Timed t = time_call([&] { o.stats = call(engine); });
  o.rep.wall_s = t.wall_s;
  o.rep.cpu_s = t.cpu_s;
  o.rep.requests = 1.0;
  if (cfg.track_stack_memory) {
    o.stack_avg_per_lane = engine.stack_memory_avg_per_lane();
    o.stack_peak = static_cast<double>(engine.stack_memory_peak());
  }
  return o;
}

// --- engine-megap -----------------------------------------------------------

Outcome<lb::IterationStats> megap_once(unsigned threads, bool track_memory,
                                       ExpandProbe* probe) {
  const auto t0 = Clock::now();
  const synthetic::Tree tree(megap_tree().params);
  lb::SchemeConfig cfg = lb::gp_static(0.9);
  cfg.track_stack_memory = track_memory;
  const auto call = [](auto& engine) {
    return engine.run_iteration(search::kUnbounded);
  };
  Outcome<lb::IterationStats> o =
      probe == nullptr
          ? engine_once<lb::IterationStats>(tree, kMegaP, threads, cfg, call,
                                            t0)
          : engine_once<lb::IterationStats>(
                TimedProblem<synthetic::Tree>(tree, *probe,
                                              Domain::kSynthetic),
                kMegaP, threads, cfg, call, t0);
  o.rep.nodes = static_cast<double>(o.stats.nodes_expanded);
  return o;
}

bool check_megap(const lb::IterationStats& got, const std::string& what,
                 Result& r) {
  lb::IterationStats want;
  if (lb::decode_journal(expected::kMegapIteration, want) && got == want) {
    return true;
  }
  r.mismatch(what + ": IterationStats differ from the pinned run\n  got  " +
             lb::encode_journal(got) + "\n  want " +
             expected::kMegapIteration);
  return false;
}

// --- engine-paper -----------------------------------------------------------

Outcome<lb::RunStats> paper_once(bool track_memory, ExpandProbe* probe) {
  const auto t0 = Clock::now();
  const puzzle::FifteenPuzzle problem(paper_instance().board());
  lb::SchemeConfig cfg = lb::gp_dk();
  cfg.track_stack_memory = track_memory;
  const auto call = [](auto& engine) { return engine.run(); };
  Outcome<lb::RunStats> o =
      probe == nullptr
          ? engine_once<lb::RunStats>(problem, kPaperP, 0, cfg, call, t0)
          : engine_once<lb::RunStats>(
                TimedProblem<puzzle::FifteenPuzzle>(problem, *probe,
                                                    Domain::kPuzzle),
                kPaperP, 0, cfg, call, t0);
  o.rep.nodes = static_cast<double>(o.stats.total.nodes_expanded);
  return o;
}

bool check_paper(const lb::RunStats& got, const std::string& what,
                 Result& r) {
  return check_run_stats(got, expected::kPaperIterations,
                         expected::kPaperSolutionBound,
                         expected::kPaperGoals, what, r);
}

/// The lb counts of a run, shared by both engine workloads.
void set_lb_counts(const lb::IterationStats& s, Result& r) {
  r.metrics["lb.expand_cycles"] = static_cast<double>(s.expand_cycles);
  r.metrics["lb.lb_phases"] = static_cast<double>(s.lb_phases);
  r.metrics["lb.lb_rounds"] = static_cast<double>(s.lb_rounds);
  r.metrics["lb.transfers"] = static_cast<double>(s.transfers);
  r.metrics["lb.efficiency"] = s.efficiency();
}

/// The traced run both engine workloads share: a warm-up, then untraced and
/// probed runs alternating so host drift lands on both sides of
/// trace_overhead_pct, then one run with stack-memory tracking.  `once(track,
/// probe)` sets up and runs the workload; `check(stats, what)` is its output
/// check.  Returns the probed run's stats.
template <typename Once, typename Check>
auto traced_engine(Once&& once, Check&& check, const std::string& name,
                   unsigned lanes, Result& r) {
  zero_layer_metrics(r);
  (void)once(false, nullptr);
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  decltype(once(false, nullptr).stats) stats;
  const auto checked = [&](const auto& o, const std::string& what) {
    ++r.attempted;
    if (!check(o.stats, name + " (" + what + ")")) ++r.failed;
    return o.rep;
  };
  for (int i = 0; i < 2; ++i) {
    plain.push_back(checked(once(false, nullptr), "untraced"));
    ExpandProbe probe;
    const auto t = once(false, &probe);
    traced.push_back(checked(t, "traced"));
    stats = t.stats;
    if (i == 1) {
      const double run_s = median({traced[0].wall_s, traced[1].wall_s});
      r.metrics["lb.engine.run_s"] = run_s;
      r.metrics["lb.engine.non_expand_s"] =
          run_s - set_probe_metrics(probe, lanes, r);
    }
  }
  const auto mem = once(true, nullptr);
  checked(mem, "stack tracking");
  r.metrics["search.stack_bytes_per_lane_avg"] = mem.stack_avg_per_lane;
  r.metrics["search.stack_bytes_peak"] = mem.stack_peak;
  r.metrics["trace_overhead_pct"] =
      overhead_pct(nodes_rates(plain), nodes_rates(traced));
  return stats;
}

/// The serial baseline and the pool-dispatch probe, the engine workloads'
/// last per-layer metrics.  `serial_s` timed the plain serial search.
void finish_engine_trace(double serial_s, std::uint32_t p,
                         std::uint64_t expand_cycles, Result& r) {
  r.metrics["search.serial_s"] = serial_s;
  r.metrics["lb.engine.overhead_vs_serial"] =
      r.metrics["lb.engine.run_s"] / serial_s;
  const double dispatch = pool_dispatch_ns(kThreads, p / 64);
  r.metrics["simd.pool.dispatch_ns"] = dispatch;
  r.metrics["simd.pool.dispatch_s_est"] =
      dispatch * 1e-9 * static_cast<double>(expand_cycles);
  r.metrics["fail_share"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
}

}  // namespace

bool check_run_stats(const lb::RunStats& got,
                     const std::vector<std::string>& want_iterations,
                     search::Bound want_bound, std::uint64_t want_goals,
                     const std::string& what, Result& r) {
  lb::RunStats want;
  for (const std::string& line : want_iterations) {
    lb::IterationStats it;
    if (!lb::decode_journal(line, it)) {
      r.mismatch(what + ": a pinned iteration line does not decode");
      return false;
    }
    want.total += it;
    want.final_iteration = it;
    want.iterations.push_back(it);
  }
  want.solution_bound = want_bound;
  want.goals_found = want_goals;
  if (got == want) return true;
  std::string msg = what + ": RunStats differ from the pinned run (bound " +
                    std::to_string(got.solution_bound) + ", goals " +
                    std::to_string(got.goals_found) + ")";
  for (const lb::IterationStats& it : got.iterations) {
    msg += "\n  got  " + lb::encode_journal(it);
  }
  for (const std::string& line : want_iterations) msg += "\n  want " + line;
  r.mismatch(msg);
  return false;
}

void run_engine_megap(const Options& opt, Result& r) {
  r.info.push_back("seed " + std::to_string(opt.seed) +
                   " ignored: syn-41M is a calibrated instance");
  if (!opt.trace) {
    const auto reps = run_reps(opt, [&] {
      const auto o = megap_once(kThreads, false, nullptr);
      ++r.attempted;
      if (!check_megap(o.stats, "engine-megap", r)) ++r.failed;
      return o.rep;
    });
    summarize_reps(reps, r);
    return;
  }

  const lb::IterationStats stats = traced_engine(
      [](bool track, ExpandProbe* probe) {
        return megap_once(kThreads, track, probe);
      },
      [&](const lb::IterationStats& got, const std::string& what) {
        return check_megap(got, what, r);
      },
      "engine-megap", kThreads, r);
  set_lb_counts(stats, r);

  // Thread-count invariance: the same iteration on one host thread.
  const auto one = megap_once(1, false, nullptr);
  ++r.attempted;
  if (!check_megap(one.stats, "engine-megap (1 host thread)", r)) ++r.failed;

  const synthetic::Tree tree(megap_tree().params);
  search::SerialIterationResult serial;
  const Timed ts = time_call([&] {
    serial = search::serial_dfs(tree, tree.root(), search::kUnbounded);
  });
  ++r.attempted;
  if (!r.expect_eq("engine-megap: serial DFS size", serial.nodes_expanded,
                   megap_tree().w)) {
    ++r.failed;
  }
  finish_engine_trace(ts.wall_s, kMegaP, stats.expand_cycles, r);
  r.info.push_back("simd.pool.dispatch_s_est is computed: dispatch_ns x "
                   "lb.expand_cycles");
}

void run_engine_paper(const Options& opt, Result& r) {
  r.info.push_back("seed " + std::to_string(opt.seed) +
                   " ignored: w-16.1M is a calibrated instance");
  if (!opt.trace) {
    const auto reps = run_reps(opt, [&] {
      const auto o = paper_once(false, nullptr);
      ++r.attempted;
      if (!check_paper(o.stats, "engine-paper", r)) ++r.failed;
      return o.rep;
    });
    summarize_reps(reps, r);
    return;
  }

  const lb::RunStats stats = traced_engine(
      paper_once,
      [&](const lb::RunStats& got, const std::string& what) {
        return check_paper(got, what, r);
      },
      "engine-paper", 1, r);
  set_lb_counts(stats.total, r);

  const puzzle::FifteenPuzzle problem(paper_instance().board());
  search::SerialIdaResult serial;
  const Timed ts = time_call([&] { serial = search::serial_ida(problem); });
  ++r.attempted;
  if (!r.expect_eq("engine-paper: serial IDA* size", serial.total_expanded,
                   paper_instance().serial_total)) {
    ++r.failed;
  }
  // No pool on this path: the dispatch probe prices what a 4-lane pool
  // would add per cycle at this machine size (ROADMAP item 2(a)).
  finish_engine_trace(ts.wall_s, kPaperP, stats.total.expand_cycles, r);
  r.info.push_back("simd.pool.dispatch_s_est is computed: dispatch_ns x "
                   "lb.expand_cycles, for a 4-lane pool this path does not "
                   "use");
}

}  // namespace perfbench
