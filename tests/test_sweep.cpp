#include "runtime/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "synthetic/calibrate.hpp"

namespace simdts::runtime {
namespace {

TEST(SweepRunner, RunsEveryTaskExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    SweepRunner runner(threads);
    runner.run(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST(SweepRunner, ZeroTasksIsANoOp) {
  SweepRunner runner(4);
  runner.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(SweepRunner, MoreThreadsThanTasks) {
  std::vector<std::atomic<int>> hits(3);
  SweepRunner runner(16);
  runner.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, PropagatesTaskExceptions) {
  SweepRunner runner(4);
  EXPECT_THROW(runner.run(32,
                          [](std::size_t i) {
                            if (i == 7) throw std::runtime_error("boom");
                          }),
               std::runtime_error);
}

TEST(SweepRunner, ZeroThreadsPicksDefault) {
  SweepRunner runner(0);
  EXPECT_GE(runner.threads(), 1u);
}

TEST(SweepMap, ResultsLandInIndexOrder) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto out = sweep_map<std::size_t>(
        64, [](std::size_t i) { return i * i; }, threads);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * i);
    }
  }
}

// --- The determinism contract: host threads never change simulated results.

std::vector<synthetic::SyntheticWorkload> tiny_ladder() {
  std::vector<synthetic::SyntheticWorkload> out;
  const synthetic::Params shapes[] = {
      {9013, 4, 0.395, 14},
      {9011, 4, 0.400, 18},
  };
  for (const auto& p : shapes) {
    out.push_back(
        synthetic::SyntheticWorkload{"ladder", p, synthetic::measure(p)});
  }
  return out;
}

TEST(SweepDeterminism, RunGridIdenticalAcrossHostThreads) {
  const auto ladder = tiny_ladder();
  // Up to the quick fig4 grid's largest machine, where cells run longest.
  const std::uint32_t sizes[] = {16, 64, 1024};
  for (const auto& cfg : {lb::gp_static(0.90), lb::gp_dk()}) {
    const analysis::GridResult serial =
        analysis::run_grid(cfg, ladder, sizes, simd::cm2_cost_model(), 1);
    for (const unsigned threads : {2u, 4u, 8u}) {
      const analysis::GridResult parallel = analysis::run_grid(
          cfg, ladder, sizes, simd::cm2_cost_model(), threads);
      ASSERT_EQ(parallel.points.size(), serial.points.size());
      for (std::size_t i = 0; i < serial.points.size(); ++i) {
        // operator== covers every field, the simulated MachineClock included:
        // a host-thread-dependent count or clock is a determinism bug.
        EXPECT_EQ(parallel.points[i], serial.points[i])
            << "grid point " << i << " at " << threads << " host threads";
      }
    }
  }
}

// Golden values: pin the integer observables of one quick grid so *any*
// change to simulated behavior — engine rewrite, census bookkeeping, matching
// order — trips a test, not just a cross-thread mismatch.  Values measured
// from the serial engine; see docs/performance.md.
TEST(SweepDeterminism, GoldenQuickGrid) {
  const auto ladder = tiny_ladder();
  const std::uint32_t sizes[] = {16, 64};
  const analysis::GridResult grid = analysis::run_grid(
      lb::gp_static(0.90), ladder, sizes, simd::cm2_cost_model(), 1);
  ASSERT_EQ(grid.points.size(), 4u);

  struct Golden {
    std::uint32_t p;
    std::uint64_t w, expand_cycles, lb_phases, lb_rounds;
  };
  const Golden golden[] = {
      {16, 941, 67, 45, 45},
      {16, 13107, 836, 113, 113},
      {64, 941, 27, 25, 25},
      {64, 13107, 220, 120, 120},
  };
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const auto& pt = grid.points[i];
    EXPECT_EQ(pt.p, golden[i].p) << "point " << i;
    EXPECT_EQ(pt.w, golden[i].w) << "point " << i;
    EXPECT_EQ(pt.expand_cycles, golden[i].expand_cycles) << "point " << i;
    EXPECT_EQ(pt.lb_phases, golden[i].lb_phases) << "point " << i;
    EXPECT_EQ(pt.lb_rounds, golden[i].lb_rounds) << "point " << i;
  }
}

}  // namespace
}  // namespace simdts::runtime
