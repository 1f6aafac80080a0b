// Unit tests of the benchmark's own pieces: the statistics helpers, the
// expand probe's results-inertness, the output checks, the seeded trace,
// and the metric table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "expected.hpp"
#include "lb/config.hpp"
#include "lb/engine.hpp"
#include "probe.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "report.hpp"
#include "service/request.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"
#include "simd/thread_pool.hpp"
#include "stats.hpp"
#include "synthetic/tree.hpp"
#include "synthetic/workloads.hpp"
#include "workloads.hpp"

namespace {

using namespace simdts;
using namespace perfbench;

template <typename W>
const W& find(std::span<const W> all, const char* name) {
  for (const W& w : all) {
    if (std::strcmp(w.name, name) == 0) return w;
  }
  throw std::runtime_error(name);
}

// --- statistics ---------------------------------------------------------------

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Stats, NearestRankQuantile) {
  std::vector<int> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(nearest_rank(v, 0.5), 500);
  EXPECT_EQ(nearest_rank(v, 0.999), 999);
  EXPECT_EQ(nearest_rank(v, 1.0), 1000);
  EXPECT_EQ(nearest_rank(std::vector<int>{}, 0.5), 0);
}

TEST(Stats, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.5), 500u);
  EXPECT_EQ(samples_beyond(1000, 0.999), 1u);
  EXPECT_EQ(samples_beyond(10000, 0.999), 10u);
  EXPECT_EQ(samples_beyond(9999, 0.999), 9u);
  EXPECT_EQ(samples_beyond(5, 1.0), 0u);
}

TEST(Stats, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_quantile(19), 0.0);  // median has 9 beyond
  EXPECT_EQ(highest_supported_quantile(20), 0.5);
  EXPECT_NEAR(highest_supported_quantile(99), 0.5, 1e-12);
  EXPECT_NEAR(highest_supported_quantile(100), 0.9, 1e-12);
  EXPECT_NEAR(highest_supported_quantile(9999), 0.99, 1e-12);
  EXPECT_NEAR(highest_supported_quantile(10000), 0.999, 1e-12);
  EXPECT_NEAR(highest_supported_quantile(102502), 0.9999, 1e-12);
  for (const std::size_t n : {20u, 150u, 5000u, 123456u}) {
    EXPECT_GE(samples_beyond(n, highest_supported_quantile(n)),
              kMinTailSamples);
  }
}

TEST(Stats, MakespanBoundAndUtilization) {
  // Average load dominates.
  EXPECT_DOUBLE_EQ(makespan_bound(12.0, 2.0, 4), 3.0);
  // The longest cell dominates.
  EXPECT_DOUBLE_EQ(makespan_bound(4.0, 2.0, 4), 2.0);
  EXPECT_DOUBLE_EQ(makespan_bound(4.0, 2.0, 0), 2.0);
  EXPECT_DOUBLE_EQ(utilization(12.0, 4, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(utilization(12.0, 4, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(utilization(12.0, 0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(utilization(12.0, 4, 0.0), 0.0);
}

TEST(Stats, Fnv1aKnownVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("b", fnv1a("a")), fnv1a("ab"));
}

// --- the expand probe is results-inert ----------------------------------------

template <typename P>
lb::IterationStats iteration(const P& problem, std::uint32_t p,
                             simd::ThreadPool* pool, search::Bound bound) {
  simd::Machine machine(p, simd::cm2_cost_model(), pool);
  lb::Engine<P> engine(problem, machine, lb::gp_static(0.9));
  return engine.run_iteration(bound);
}

TEST(TimedProblem, BitIdenticalOnSyn96k) {
  const synthetic::Tree tree(
      find(synthetic::iso_workloads(), "syn-96k").params);
  simd::ThreadPool pool(2);
  for (simd::ThreadPool* pl : {static_cast<simd::ThreadPool*>(nullptr), &pool}) {
    ExpandProbe probe;
    const TimedProblem<synthetic::Tree> timed(tree, probe, Domain::kSynthetic);
    const lb::IterationStats plain =
        iteration(tree, 4096, pl, search::kUnbounded);
    const lb::IterationStats traced =
        iteration(timed, 4096, pl, search::kUnbounded);
    EXPECT_EQ(plain, traced);
    EXPECT_EQ(plain.nodes_expanded, 95585u);
    EXPECT_EQ(probe.calls(Domain::kSynthetic), plain.nodes_expanded);
    EXPECT_EQ(probe.calls(Domain::kPuzzle), 0u);
    EXPECT_GT(probe.busy_s(Domain::kSynthetic), 0.0);
  }
}

TEST(TimedProblem, BitIdenticalOnT21k) {
  const auto& wl = find(puzzle::test_workloads(), "t-21k");
  const puzzle::FifteenPuzzle problem(wl.board());
  ExpandProbe probe;
  const TimedProblem<puzzle::FifteenPuzzle> timed(problem, probe,
                                                  Domain::kPuzzle);
  const lb::IterationStats plain =
      iteration(problem, 512, nullptr, wl.solution_length);
  const lb::IterationStats traced =
      iteration(timed, 512, nullptr, wl.solution_length);
  EXPECT_EQ(plain, traced);
  EXPECT_EQ(plain.nodes_expanded, wl.serial_final);
  // Goal nodes are popped but not expanded.
  EXPECT_EQ(probe.calls(Domain::kPuzzle),
            plain.nodes_expanded - plain.goals_found);
  ASSERT_EQ(probe.lane_busy_s().size(), 1u);
}

// --- the output checks ---------------------------------------------------------

lb::RunStats t21k_run() {
  const puzzle::FifteenPuzzle problem(
      find(puzzle::test_workloads(), "t-21k").board());
  simd::Machine machine(256, simd::cm2_cost_model());
  lb::Engine<puzzle::FifteenPuzzle> engine(problem, machine, lb::gp_dk());
  return engine.run();
}

TEST(OutputCheck, RunStatsAcceptsExactAndRejectsPerturbed) {
  const lb::RunStats run = t21k_run();
  std::vector<std::string> lines;
  for (const auto& it : run.iterations) lines.push_back(lb::encode_journal(it));
  Result ok;
  EXPECT_TRUE(check_run_stats(run, lines, run.solution_bound,
                              run.goals_found, "t-21k", ok));
  EXPECT_TRUE(ok.correct());

  // One transfer more in the last iteration.
  std::vector<std::string> bad = lines;
  lb::IterationStats last = run.iterations.back();
  ++last.transfers;
  bad.back() = lb::encode_journal(last);
  Result r;
  EXPECT_FALSE(check_run_stats(run, bad, run.solution_bound, run.goals_found,
                               "t-21k", r));
  EXPECT_FALSE(r.correct());

  // The clock is compared bit-exactly: one ulp of simulated time differs.
  bad = lines;
  last = run.iterations.back();
  last.clock.elapsed = std::nextafter(last.clock.elapsed, 1e300);
  bad.back() = lb::encode_journal(last);
  Result r2;
  EXPECT_FALSE(check_run_stats(run, bad, run.solution_bound,
                               run.goals_found, "t-21k", r2));

  Result r3;
  EXPECT_FALSE(check_run_stats(run, lines, run.solution_bound,
                               run.goals_found + 1, "t-21k", r3));
}

TEST(OutputCheck, GridCountsEachDifferingCell) {
  const synthetic::SyntheticWorkload rungs[] = {
      find(synthetic::iso_workloads(), "syn-941"),
      find(synthetic::iso_workloads(), "syn-13k")};
  const std::uint32_t sizes[] = {64, 128};
  const analysis::GridResult g = analysis::run_grid(
      lb::gp_static(0.9), rungs, sizes, simd::cm2_cost_model(), 1);
  std::vector<std::string> want;
  for (const auto& pt : g.points) want.push_back(analysis::encode_grid_point(pt));
  Result ok;
  EXPECT_EQ(check_grid(g.points, want, "grid", ok), 0u);
  EXPECT_TRUE(ok.correct());

  analysis::GridPoint perturbed = g.points[1];
  perturbed.efficiency = std::nextafter(perturbed.efficiency, 2.0);
  want[1] = analysis::encode_grid_point(perturbed);
  perturbed = g.points[3];
  ++perturbed.lb_phases;
  want[3] = analysis::encode_grid_point(perturbed);
  Result r;
  EXPECT_EQ(check_grid(g.points, want, "grid", r), 2u);
  EXPECT_FALSE(r.correct());

  want.pop_back();
  Result r2;
  EXPECT_GE(check_grid(g.points, want, "grid", r2), 1u);
}

TEST(OutputCheck, PinnedValuesAreWellFormed) {
  lb::IterationStats megap;
  ASSERT_TRUE(lb::decode_journal(expected::kMegapIteration, megap));
  EXPECT_EQ(lb::encode_journal(megap), expected::kMegapIteration);
  EXPECT_EQ(megap.nodes_expanded,
            find(synthetic::iso_workloads(), "syn-41M").w);
  std::uint64_t paper_nodes = 0;
  for (const std::string& line : expected::kPaperIterations) {
    lb::IterationStats it;
    ASSERT_TRUE(lb::decode_journal(line, it));
    paper_nodes += it.nodes_expanded;
  }
  EXPECT_EQ(paper_nodes, find(puzzle::paper_workloads(), "w-16.1M").serial_total);
  ASSERT_EQ(expected::kFig4Points.size(), 35u);
  for (const std::string& line : expected::kFig4Points) {
    analysis::GridPoint pt;
    ASSERT_TRUE(analysis::decode_grid_point(line, pt));
    EXPECT_FALSE(pt.timed_out);
  }
  for (std::size_t i = 0; i < std::size(expected::kServiceGoldens); ++i) {
    EXPECT_EQ(expected::kServiceGoldens[i].seed, i) << "goldens out of order";
  }
}

// --- seed plumbing ----------------------------------------------------------

TEST(Trace, DerivesOnlyFromTheSeed) {
  const auto a = make_trace(7, 6000);
  const auto b = make_trace(7, 6000);
  const auto c = make_trace(8, 6000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // The hot set is random_trace's own prefix.
  const auto base = service::random_trace(7, 6000);
  for (std::size_t i = 0; i < kHotSet; ++i) EXPECT_EQ(a[i], base[i]);
}

TEST(Trace, EverySeedMapsToAPinnedTraceSeed) {
  const std::uint64_t n = std::size(expected::kServiceGoldens);
  for (const std::uint64_t seed :
       {0ULL, 1ULL, 31ULL, 32ULL, 101ULL, 210ULL, ~0ULL}) {
    const std::uint64_t t = trace_seed(seed);
    ASSERT_LT(t, n);
    EXPECT_EQ(t, seed % n);
    EXPECT_EQ(expected::kServiceGoldens[t].seed, t);
  }
  EXPECT_NE(trace_seed(101), trace_seed(102));
}

TEST(Trace, HalfOfTheRequestsAfterTheHotSetReuseItsContent) {
  const std::size_t n = 40000;
  const auto t = make_trace(11, n);
  const auto base = service::random_trace(11, n);
  std::set<std::uint64_t> hot;
  for (std::size_t i = 0; i < kHotSet; ++i) hot.insert(service::canonical_key(t[i]));
  std::size_t reused = 0;
  for (std::size_t i = kHotSet; i < n; ++i) {
    // The envelope is never rewritten.
    EXPECT_EQ(t[i].id, base[i].id);
    EXPECT_EQ(t[i].tenant, base[i].tenant);
    EXPECT_EQ(t[i].arrival_tick, base[i].arrival_tick);
    EXPECT_EQ(t[i].priority, base[i].priority);
    reused += hot.count(service::canonical_key(t[i]));
  }
  const double share =
      static_cast<double>(reused) / static_cast<double>(n - kHotSet);
  EXPECT_GT(share, 0.47);
  EXPECT_LT(share, 0.53);
}

// --- self-description -------------------------------------------------------

TEST(Metrics, NamesUnitsAndDirectionsAreWellFormed) {
  std::set<std::string> names;
  bool setup = false;
  for (const MetricSpec& m : metric_specs()) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
    const std::string better = m.better;
    EXPECT_TRUE(better == "higher" || better == "lower") << m.name;
    EXPECT_LE(std::strlen(m.unit), 16u);
    if (m.kind == MetricKind::kPerLayer) EXPECT_STRNE(m.moves, "") << m.name;
    if (std::string(m.name) == "setup_s") {
      setup = m.kind == MetricKind::kEndToEnd &&
              std::string(m.unit) == "s" && better == "lower";
    }
  }
  EXPECT_TRUE(setup);
  EXPECT_EQ(workload_specs().size(), 4u);
}

/// print_result's return value is perfbench's exit status (0 when true).
bool print_captured(const Result& r, std::string& out) {
  std::ostringstream os;
  std::streambuf* old = std::cout.rdbuf(os.rdbuf());
  const bool ok = print_result(r, MetricKind::kEndToEnd, "{}");
  std::cout.rdbuf(old);
  out = os.str();
  return ok;
}

TEST(Report, ExitStatusFailsOnMismatchOrMissingMetric) {
  Result r;
  r.attempted = 2;
  for (const MetricSpec& m : metric_specs()) {
    if (m.kind == MetricKind::kEndToEnd) r.metrics[m.name] = 1.5;
  }
  std::string out;
  EXPECT_TRUE(print_captured(r, out));
  EXPECT_NE(out.find("{\"correct\": true, \"attempted\": 2"),
            std::string::npos);

  Result bad = r;
  bad.failed = 1;
  bad.mismatch("pinned value differs");
  EXPECT_FALSE(print_captured(bad, out));
  EXPECT_NE(out.find("{\"correct\": false, \"attempted\": 2, "
                     "\"failed\": 1"),
            std::string::npos);

  Result partial = r;
  partial.metrics.erase("setup_s");
  EXPECT_FALSE(print_captured(partial, out));
  EXPECT_EQ(out.find("{\"correct\""), std::string::npos);
}

}  // namespace
