// sweep-fig4: analysis::run_grid over the fig4a GP-S^0.9 grid, journaled as
// the fig4 binary runs it.
#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "expected.hpp"
#include "lb/config.hpp"
#include "lb/engine.hpp"
#include "probe.hpp"
#include "runtime/journal.hpp"
#include "runtime/sweep.hpp"
#include "search/serial.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"
#include "stats.hpp"
#include "synthetic/tree.hpp"
#include "synthetic/workloads.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace simdts;

constexpr std::uint32_t kSizes[] = {512, 1024, 2048, 4096, 8192};
/// The fig4 binary's watchdog prior (SIMDTS_CYCLE_BUDGET's default).
constexpr std::uint64_t kCycleBudget = 500000000;

/// The iso ladder syn-941 ... syn-23M: every rung the P = 512 ... 8192 grid
/// needs (syn-41M is engine-megap's tree).
std::vector<synthetic::SyntheticWorkload> ladder() {
  std::vector<synthetic::SyntheticWorkload> out;
  for (const auto& wl : synthetic::iso_workloads()) {
    if (std::strcmp(wl.name, "syn-41M") != 0) out.push_back(wl);
  }
  return out;
}

analysis::GridOptions grid_options(const Options& opt, unsigned threads) {
  analysis::GridOptions o;
  o.threads = threads;
  o.cycle_budget = kCycleBudget;
  o.journal_path = (opt.work_dir / "fig4a_gp_s90_grid.journal").string();
  return o;
}

struct SweepOutcome {
  std::vector<analysis::GridPoint> points;
  Rep rep;
  /// Traced sweep only: the cells' summed wall time and lb transfers.
  double cells_s = 0.0;
  std::uint64_t transfers = 0;
};

/// One journaled sweep, as bench/iso_common.hpp's run_iso_experiment runs
/// it: fresh journal, run_grid, journal removed afterwards.
SweepOutcome sweep_once(const Options& opt) {
  SweepOutcome o;
  const auto t0 = Clock::now();
  const std::vector<synthetic::SyntheticWorkload> rungs = ladder();
  const analysis::GridOptions options = grid_options(opt, kThreads);
  runtime::SweepJournal journal(options.journal_path);
  journal.remove();
  const lb::SchemeConfig cfg = lb::gp_static(0.90);
  const simd::CostModel cost = simd::cm2_cost_model();
  o.rep.setup_s = seconds_since(t0);
  const Timed t = time_call([&] {
    o.points = analysis::run_grid(cfg, rungs, kSizes, cost, options).points;
  });
  journal.remove();
  o.rep.wall_s = t.wall_s;
  o.rep.cpu_s = t.cpu_s;
  o.rep.requests = static_cast<double>(o.points.size());
  for (const auto& pt : o.points) o.rep.nodes += static_cast<double>(pt.w);
  return o;
}

/// The traced sweep: run_grid's cell loop replayed with the expand probe
/// wrapped around each cell's tree — same scheduler, same (P, W) order, same
/// journal writes.
SweepOutcome traced_sweep_once(const Options& opt, ExpandProbe& probe) {
  SweepOutcome o;
  const auto t0 = Clock::now();
  const std::vector<synthetic::SyntheticWorkload> rungs = ladder();
  const analysis::GridOptions options = grid_options(opt, kThreads);
  runtime::SweepJournal journal(options.journal_path);
  journal.remove();
  const lb::SchemeConfig cfg = lb::gp_static(0.90);
  const simd::CostModel cost = simd::cm2_cost_model();
  o.points.resize(std::size(kSizes) * rungs.size());
  std::vector<double> cell_s(o.points.size());
  std::vector<std::uint64_t> transfers(o.points.size());
  o.rep.setup_s = seconds_since(t0);
  const Timed t = time_call([&] {
    runtime::SweepRunner runner(options.threads);
    runner.run(o.points.size(), [&](std::size_t k) {
      const auto c0 = Clock::now();
      const std::uint32_t p = kSizes[k / rungs.size()];
      const synthetic::Tree tree(rungs[k % rungs.size()].params);
      const TimedProblem<synthetic::Tree> timed(tree, probe,
                                                Domain::kSynthetic);
      simd::Machine machine(p, cost);
      lb::Engine<TimedProblem<synthetic::Tree>> engine(timed, machine, cfg);
      engine.set_cycle_budget(options.cycle_budget);
      const lb::IterationStats s = engine.run_iteration(search::kUnbounded);
      analysis::GridPoint& pt = o.points[k];
      pt.p = p;
      pt.w = s.nodes_expanded;
      pt.efficiency = s.efficiency();
      pt.expand_cycles = s.expand_cycles;
      pt.lb_phases = s.lb_phases;
      pt.lb_rounds = s.lb_rounds;
      pt.clock = s.clock;
      journal.record(k, analysis::encode_grid_point(pt));
      transfers[k] = s.transfers;
      cell_s[k] = seconds_since(c0);
    });
  });
  journal.remove();
  for (std::size_t k = 0; k < o.points.size(); ++k) {
    o.cells_s += cell_s[k];
    o.transfers += transfers[k];
  }
  o.rep.wall_s = t.wall_s;
  o.rep.cpu_s = t.cpu_s;
  o.rep.requests = static_cast<double>(o.points.size());
  for (const auto& pt : o.points) o.rep.nodes += static_cast<double>(pt.w);
  return o;
}

}  // namespace

std::uint64_t check_grid(const std::vector<analysis::GridPoint>& got,
                         const std::vector<std::string>& want,
                         const std::string& what, Result& r) {
  std::uint64_t bad = 0;
  std::string msg;
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    const std::string g =
        i < got.size() ? analysis::encode_grid_point(got[i]) : "(none)";
    const std::string w = i < want.size() ? want[i] : "(none)";
    if (g != w) {
      ++bad;
      msg += "\n  cell " + std::to_string(i) + " got  " + g + "\n  cell " +
             std::to_string(i) + " want " + w;
    }
  }
  if (bad != 0) {
    r.mismatch(what + ": " + std::to_string(bad) +
               " grid points differ from the pinned grid" + msg);
  }
  return bad;
}

void run_sweep_fig4(const Options& opt, Result& r) {
  r.info.push_back("seed " + std::to_string(opt.seed) +
                   " ignored: the fig4 ladder is calibrated");
  const auto checked = [&](const SweepOutcome& o, const std::string& what) {
    r.attempted += o.points.size();
    r.failed += check_grid(o.points, expected::kFig4Points, what, r);
  };
  if (!opt.trace) {
    const auto reps = run_reps(opt, [&] {
      const SweepOutcome o = sweep_once(opt);
      checked(o, "sweep-fig4");
      return o.rep;
    });
    summarize_reps(reps, r);
    return;
  }

  zero_layer_metrics(r);
  (void)sweep_once(opt);
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  for (int i = 0; i < 2; ++i) {
    const SweepOutcome o = sweep_once(opt);
    checked(o, "sweep-fig4 (untraced)");
    plain.push_back(o.rep);
    ExpandProbe probe;
    const SweepOutcome t = traced_sweep_once(opt, probe);
    checked(t, "sweep-fig4 (traced)");
    traced.push_back(t.rep);
    if (i == 1) {
      set_probe_metrics(probe, kThreads, r);
      simd::MachineClock clock;
      double cycles = 0;
      double phases = 0;
      double rounds = 0;
      for (const auto& pt : t.points) {
        clock += pt.clock;
        cycles += static_cast<double>(pt.expand_cycles);
        phases += static_cast<double>(pt.lb_phases);
        rounds += static_cast<double>(pt.lb_rounds);
      }
      r.metrics["lb.expand_cycles"] = cycles;
      r.metrics["lb.lb_phases"] = phases;
      r.metrics["lb.lb_rounds"] = rounds;
      r.metrics["lb.transfers"] = static_cast<double>(t.transfers);
      r.metrics["lb.efficiency"] = clock.efficiency();
      // The traced cells' wall time less their probed expand time, both
      // taken in this one traced sweep.
      r.metrics["lb.engine.non_expand_s"] =
          t.cells_s - r.metrics["synthetic.expand_busy_s"];
    }
  }

  // Each cell alone on one thread, through a single-cell run_grid: the
  // cells' busy time and the longest cell bound the sweep's makespan.
  const std::vector<synthetic::SyntheticWorkload> rungs = ladder();
  double busy = 0.0;
  double longest = 0.0;
  std::vector<analysis::GridPoint> single;
  for (const std::uint32_t p : kSizes) {
    for (const auto& wl : rungs) {
      analysis::GridOptions o;
      o.threads = 1;
      o.cycle_budget = kCycleBudget;
      const std::uint32_t sizes[] = {p};
      analysis::GridResult g;
      const Timed t = time_call([&] {
        g = analysis::run_grid(lb::gp_static(0.90),
                               std::span<const synthetic::SyntheticWorkload>(
                                   &wl, 1),
                               sizes, simd::cm2_cost_model(), o);
      });
      single.push_back(g.points.front());
      busy += t.wall_s;
      longest = std::max(longest, t.wall_s);
    }
  }
  checked(SweepOutcome{single, {}}, "sweep-fig4 (cells one at a time)");
  const double wall = median({plain[0].wall_s, plain[1].wall_s});
  r.metrics["runtime.sweep.cells"] = static_cast<double>(single.size());
  r.metrics["runtime.sweep.cell_s_max"] = longest;
  r.metrics["runtime.sweep.cells_busy_s"] = busy;
  r.metrics["runtime.sweep.wall_s"] = wall;
  r.metrics["runtime.sweep.makespan_bound_s"] =
      makespan_bound(busy, longest, kThreads);
  r.metrics["runtime.sweep.utilization"] = utilization(busy, kThreads, wall);
  r.metrics["lb.engine.run_s"] = busy;

  double serial_s = 0.0;
  for (const auto& wl : rungs) {
    const synthetic::Tree tree(wl.params);
    search::SerialIterationResult s;
    const Timed t = time_call(
        [&] { s = search::serial_dfs(tree, tree.root(), search::kUnbounded); });
    ++r.attempted;
    if (!r.expect_eq(std::string("sweep-fig4: serial DFS size of ") + wl.name,
                     s.nodes_expanded, wl.w)) {
      ++r.failed;
    }
    serial_s += t.wall_s * static_cast<double>(std::size(kSizes));
  }
  r.metrics["search.serial_s"] = serial_s;
  r.metrics["lb.engine.overhead_vs_serial"] = busy / serial_s;

  // No pool on this path either; priced at the grid's largest machine.
  const double dispatch = pool_dispatch_ns(kThreads, 8192 / 64);
  r.metrics["simd.pool.dispatch_ns"] = dispatch;
  r.metrics["simd.pool.dispatch_s_est"] =
      dispatch * 1e-9 * r.metrics["lb.expand_cycles"];
  r.metrics["trace_overhead_pct"] =
      overhead_pct(nodes_rates(plain), nodes_rates(traced));
  r.metrics["fail_share"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.info.push_back(
      "the traced sweep replays run_grid's cell loop with the expand probe; "
      "lb.engine.non_expand_s is its cells' summed wall time less their "
      "probed expand time; lb.engine.run_s and runtime.sweep.cells_busy_s "
      "time each cell alone; "
      "search.serial_s counts each rung once per machine size");
}

}  // namespace perfbench
