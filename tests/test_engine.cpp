#include "lb/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/baselines.hpp"
#include "fault/fault.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/instances.hpp"
#include "puzzle/workloads.hpp"
#include "queens/queens.hpp"
#include "search/serial.hpp"
#include "synthetic/tree.hpp"

namespace simdts::lb {
namespace {

using puzzle::Board;
using puzzle::FifteenPuzzle;
using search::kUnbounded;

simd::Machine make_machine(std::uint32_t p) {
  return simd::Machine(p, simd::cm2_cost_model());
}

std::vector<SchemeConfig> paper_schemes() {
  return {ngp_static(0.5), ngp_static(0.75), ngp_static(0.9),
          gp_static(0.5),  gp_static(0.75),  gp_static(0.9),
          ngp_dp(),        gp_dp(),          ngp_dk(),
          gp_dk()};
}

// ---------------------------------------------------------------------------
// Conservation: the master invariant.  For every scheme and machine size,
// the parallel search must expand exactly the nodes the serial search
// expands — transfers move nodes, never duplicate or drop them, and the
// search runs to exhaustion so there are no speedup anomalies.
// ---------------------------------------------------------------------------

using ConsParam = std::tuple<std::size_t /*scheme*/, std::uint32_t /*P*/>;

class Conservation : public ::testing::TestWithParam<ConsParam> {};

TEST_P(Conservation, PuzzleExpansionsMatchSerial) {
  const auto [scheme_idx, p] = GetParam();
  const SchemeConfig cfg = paper_schemes()[scheme_idx];

  const auto& wl = puzzle::test_workloads()[1];  // t-4k
  const FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);

  simd::Machine machine = make_machine(p);
  Engine<FifteenPuzzle> engine(problem, machine, cfg);
  const RunStats rs = engine.run();

  EXPECT_EQ(rs.total.nodes_expanded, serial.total_expanded) << cfg.name();
  EXPECT_EQ(rs.solution_bound, serial.solution_bound) << cfg.name();
  EXPECT_EQ(rs.goals_found, serial.goals_found) << cfg.name();
  EXPECT_EQ(rs.iterations.size(), serial.iterations.size()) << cfg.name();
  for (std::size_t i = 0; i < rs.iterations.size(); ++i) {
    EXPECT_EQ(rs.iterations[i].nodes_expanded,
              serial.iterations[i].nodes_expanded)
        << cfg.name() << " iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSizes, Conservation,
    ::testing::Combine(::testing::Range<std::size_t>(0, 10),
                       ::testing::Values(1u, 2u, 16u, 64u, 256u)));

TEST(Engine, ConservationOnSyntheticTree) {
  const synthetic::Tree tree(synthetic::Params{42, 4, 0.38, 16});
  const auto serial = search::serial_dfs(tree, tree.root(), kUnbounded);
  for (const auto& cfg : paper_schemes()) {
    simd::Machine machine = make_machine(64);
    Engine<synthetic::Tree> engine(tree, machine, cfg);
    const IterationStats it = engine.run_iteration(kUnbounded);
    EXPECT_EQ(it.nodes_expanded, serial.nodes_expanded) << cfg.name();
    EXPECT_EQ(it.goals_found, 0u);
  }
}

class QueensEngine : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QueensEngine, FindsAll92SolutionsOfEightQueens) {
  const queens::Queens q(8);
  simd::Machine machine = make_machine(GetParam());
  Engine<queens::Queens> engine(q, machine, gp_dk());
  const IterationStats it = engine.run_iteration(kUnbounded);
  EXPECT_EQ(it.goals_found, 92u);
  EXPECT_EQ(engine.goal_nodes().size(), 92u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QueensEngine,
                         ::testing::Values(1u, 4u, 32u, 512u, 4096u));

// ---------------------------------------------------------------------------
// Structural properties.
// ---------------------------------------------------------------------------

TEST(Engine, SingleProcessorDegeneratesToSerialCycleCount) {
  const auto& wl = puzzle::test_workloads()[0];  // t-60
  const FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);
  simd::Machine machine = make_machine(1);
  Engine<FifteenPuzzle> engine(problem, machine, gp_static(0.9));
  const RunStats rs = engine.run();
  // With one PE every cycle expands exactly one node and no load balancing
  // can occur (there is never an idle PE while work remains).
  EXPECT_EQ(rs.total.expand_cycles, serial.total_expanded);
  EXPECT_EQ(rs.total.lb_phases, 0u);
  EXPECT_DOUBLE_EQ(rs.efficiency(), 1.0);
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  for (const auto& cfg : {gp_static(0.8), gp_dp(), ngp_dk()}) {
    simd::Machine m1 = make_machine(128);
    simd::Machine m2 = make_machine(128);
    Engine<FifteenPuzzle> e1(problem, m1, cfg);
    Engine<FifteenPuzzle> e2(problem, m2, cfg);
    const RunStats r1 = e1.run();
    const RunStats r2 = e2.run();
    EXPECT_EQ(r1.total.expand_cycles, r2.total.expand_cycles) << cfg.name();
    EXPECT_EQ(r1.total.lb_phases, r2.total.lb_phases) << cfg.name();
    EXPECT_EQ(r1.total.transfers, r2.total.transfers) << cfg.name();
    EXPECT_DOUBLE_EQ(r1.efficiency(), r2.efficiency()) << cfg.name();
  }
}

TEST(Engine, ThreadPoolDoesNotChangeResults) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  simd::ThreadPool pool(4);

  simd::Machine serial_machine(64, simd::cm2_cost_model());
  simd::Machine pooled_machine(64, simd::cm2_cost_model(), &pool);
  Engine<FifteenPuzzle> e1(problem, serial_machine, gp_dk());
  Engine<FifteenPuzzle> e2(problem, pooled_machine, gp_dk());
  const RunStats r1 = e1.run();
  const RunStats r2 = e2.run();
  EXPECT_EQ(r1.total.nodes_expanded, r2.total.nodes_expanded);
  EXPECT_EQ(r1.total.expand_cycles, r2.total.expand_cycles);
  EXPECT_EQ(r1.total.lb_phases, r2.total.lb_phases);
  EXPECT_EQ(r1.total.transfers, r2.total.transfers);
}

TEST(Engine, MoreProcessorsThanNodesStillTerminates) {
  // A tiny tree on a big machine: most PEs never get work.
  const queens::Queens q(4);
  simd::Machine machine = make_machine(8192);
  Engine<queens::Queens> engine(q, machine, gp_static(0.9));
  const IterationStats it = engine.run_iteration(kUnbounded);
  EXPECT_EQ(it.goals_found, 2u);
  EXPECT_GT(it.expand_cycles, 0u);
}

TEST(Engine, EfficiencyWithinUnitInterval) {
  const auto& wl = puzzle::test_workloads()[2];  // t-21k
  const FifteenPuzzle problem(wl.board());
  for (const auto& cfg : paper_schemes()) {
    simd::Machine machine = make_machine(256);
    Engine<FifteenPuzzle> engine(problem, machine, cfg);
    const RunStats rs = engine.run();
    EXPECT_GT(rs.efficiency(), 0.0) << cfg.name();
    EXPECT_LE(rs.efficiency(), 1.0) << cfg.name();
  }
}

TEST(Engine, ParallelCyclesAreFewerThanSerialWithEnoughWork) {
  const auto& wl = puzzle::test_workloads()[2];
  const FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);
  simd::Machine machine = make_machine(256);
  Engine<FifteenPuzzle> engine(problem, machine, gp_static(0.75));
  const RunStats rs = engine.run();
  // Speedup: cycles must be far below W (otherwise nothing was parallel).
  EXPECT_LT(rs.total.expand_cycles, serial.total_expanded / 8);
}

TEST(Engine, TraceRecordsEveryCycle) {
  SchemeConfig cfg = gp_dk();
  cfg.record_trace = true;
  const auto& wl = puzzle::test_workloads()[0];
  const FifteenPuzzle problem(wl.board());
  simd::Machine machine = make_machine(16);
  Engine<FifteenPuzzle> engine(problem, machine, cfg);
  const IterationStats it =
      engine.run_iteration(problem.f_value(problem.root()));
  EXPECT_EQ(it.trace.size(), it.expand_cycles);
  for (const auto& t : it.trace) {
    EXPECT_LE(t.splittable, t.working);
    EXPECT_LE(t.working, 16u);
  }
}

TEST(Engine, TransfersOnlyHappenInLbRounds) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  simd::Machine machine = make_machine(64);
  Engine<FifteenPuzzle> engine(problem, machine, gp_static(0.7));
  const RunStats rs = engine.run();
  EXPECT_GE(rs.total.transfers, rs.total.lb_rounds);
  EXPECT_GE(rs.total.lb_rounds, rs.total.lb_phases);
  // Single-transfer static scheme: rounds == phases.
  EXPECT_EQ(rs.total.lb_rounds, rs.total.lb_phases);
}

TEST(Engine, MultipleTransfersServeMoreIdlePes) {
  const auto& wl = puzzle::test_workloads()[2];
  const FifteenPuzzle problem(wl.board());

  SchemeConfig single = gp_dp();
  single.multiple_transfers = false;
  SchemeConfig multiple = gp_dp();

  simd::Machine m1 = make_machine(128);
  simd::Machine m2 = make_machine(128);
  Engine<FifteenPuzzle> e1(problem, m1, single);
  Engine<FifteenPuzzle> e2(problem, m2, multiple);
  const RunStats r1 = e1.run();
  const RunStats r2 = e2.run();
  // With multiple transfer rounds per phase, each phase does at least as
  // many rounds as phases.
  EXPECT_EQ(r1.total.lb_rounds, r1.total.lb_phases);
  EXPECT_GE(r2.total.lb_rounds, r2.total.lb_phases);
  EXPECT_GT(r2.total.transfers, 0u);
}

TEST(Engine, FinalIterationMatchesLastEntry) {
  const auto& wl = puzzle::test_workloads()[0];
  const FifteenPuzzle problem(wl.board());
  simd::Machine machine = make_machine(8);
  Engine<FifteenPuzzle> engine(problem, machine, gp_dk());
  const RunStats rs = engine.run();
  ASSERT_FALSE(rs.iterations.empty());
  EXPECT_EQ(rs.final_iteration.nodes_expanded,
            rs.iterations.back().nodes_expanded);
  EXPECT_EQ(rs.final_iteration.bound, rs.solution_bound);
}

TEST(Engine, GoalNodesCarryTheSolutionDepth) {
  const auto& wl = puzzle::test_workloads()[0];
  const FifteenPuzzle problem(wl.board());
  simd::Machine machine = make_machine(32);
  Engine<FifteenPuzzle> engine(problem, machine, gp_static(0.75));
  const RunStats rs = engine.run();
  ASSERT_EQ(rs.goals_found, wl.goals);
  for (const auto& n : engine.goal_nodes()) {
    EXPECT_EQ(n.h, 0);
    EXPECT_EQ(n.g, rs.solution_bound);
  }
}

TEST(Engine, BusyPolicyNonEmptyAblation) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  SchemeConfig cfg = gp_static(0.8);
  cfg.busy = BusyPolicy::kNonEmpty;
  simd::Machine machine = make_machine(64);
  Engine<FifteenPuzzle> engine(problem, machine, cfg);
  const RunStats rs = engine.run();
  const auto serial = search::serial_ida(problem);
  EXPECT_EQ(rs.total.nodes_expanded, serial.total_expanded);
}

TEST(Engine, SplitStrategiesAllConserveWork) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);
  for (const auto strat :
       {search::SplitStrategy::kBottomNode, search::SplitStrategy::kHalf,
        search::SplitStrategy::kTopNode}) {
    SchemeConfig cfg = gp_static(0.75);
    cfg.split = strat;
    simd::Machine machine = make_machine(64);
    Engine<FifteenPuzzle> engine(problem, machine, cfg);
    const RunStats rs = engine.run();
    EXPECT_EQ(rs.total.nodes_expanded, serial.total_expanded)
        << to_string(strat);
  }
}

// ---------------------------------------------------------------------------
// Split-transfer rounds: the stack pass spreads pairs over the pool, so a
// round must come out the same for every lane count — every split strategy,
// every matching scheme, multiple transfers, and a drop budget that runs out
// in the middle of a round.
// ---------------------------------------------------------------------------

/// What a run leaves behind: its stats, its goals, and every lane's stack.
template <typename Node, typename Stats>
struct TransferOutcome {
  Stats stats;
  std::vector<Node> goals;
  std::vector<std::size_t> stack_sizes;

  friend bool operator==(const TransferOutcome&,
                         const TransferOutcome&) = default;
};

template <typename Problem, typename Call>
auto run_transfers(const Problem& problem, std::uint32_t p,
                   simd::ThreadPool* pool, const SchemeConfig& cfg,
                   const fault::FaultPlan* plan, Call&& call) {
  simd::Machine machine(p, simd::cm2_cost_model(), pool);
  Engine<Problem> engine(problem, machine, cfg);
  if (plan != nullptr) engine.arm_faults(plan);
  TransferOutcome<typename Problem::Node, decltype(call(engine))> out{
      call(engine), engine.goal_nodes(), {}};
  for (std::size_t i = 0; i < p; ++i) {
    out.stack_sizes.push_back(engine.stacks()[i].size());
  }
  return out;
}

/// Runs `cfg` with no pool, then with every pool in `pools`, and expects
/// the same outcome each time; returns the no-pool outcome.
template <typename Problem, typename Call>
auto expect_pool_invariant(
    const Problem& problem, std::uint32_t p, const SchemeConfig& cfg,
    const fault::FaultPlan* plan, Call&& call,
    const std::vector<std::unique_ptr<simd::ThreadPool>>& pools) {
  const auto base = run_transfers(problem, p, nullptr, cfg, plan, call);
  for (const auto& pool : pools) {
    EXPECT_TRUE(base == run_transfers(problem, p, pool.get(), cfg, plan, call))
        << cfg.name() << " P=" << p << " lanes=" << pool->size()
        << (plan != nullptr ? " drops" : "");
  }
  return base;
}

TEST(Engine, TransfersAreThreadCountInvariant) {
  std::vector<std::unique_ptr<simd::ThreadPool>> pools;
  for (const unsigned lanes : {1u, 2u, 3u, 8u}) {
    pools.push_back(std::make_unique<simd::ThreadPool>(lanes));
  }
  const auto exhaustive = [](auto& e) { return e.run_iteration(kUnbounded); };
  const auto first = [](auto& e) { return e.run_first_solution(kUnbounded); };

  // 9-queens: 352 goals, and rounds of up to a few hundred pairs, so the
  // stack pass spans several 64-pair chunks.  First-solution runs stop
  // with work still on the stacks.
  const queens::Queens q(9);
  std::vector<SchemeConfig> cfgs;
  for (const auto strat :
       {search::SplitStrategy::kBottomNode, search::SplitStrategy::kHalf,
        search::SplitStrategy::kTopNode}) {
    for (SchemeConfig cfg :
         {gp_static(0.9), ngp_static(0.9), baselines::frye_neighbor()}) {
      cfg.split = strat;
      cfgs.push_back(cfg);
    }
  }
  cfgs.push_back(gp_dp());  // D^P: multiple transfer rounds per phase
  // Five lost messages: the round that follows cycle 4 matches eight pairs,
  // so the budget runs out partway through it.
  const fault::FaultPlan drops({{4, fault::FaultKind::kDropMessages, 0, 5}});
  for (const std::uint32_t p : {4097u, 1u << 14}) {
    for (const SchemeConfig& cfg : cfgs) {
      const auto base =
          expect_pool_invariant(q, p, cfg, nullptr, exhaustive, pools);
      EXPECT_EQ(base.stats.goals_found, 352u) << cfg.name();
      EXPECT_GT(base.stats.transfers, 0u) << cfg.name();
      expect_pool_invariant(q, p, cfg, nullptr, first, pools);
    }
    const auto dropped =
        expect_pool_invariant(q, p, gp_static(0.9), &drops, exhaustive, pools);
    EXPECT_EQ(dropped.stats.messages_dropped, 5u);
    expect_pool_invariant(q, p, gp_static(0.9), &drops, first, pools);
  }

  // The queens tree never fills these machines, so GP and nGP pair the
  // same lanes above.  A ~41k-node synthetic tree at P = 4097 has rounds
  // with more busy than idle lanes, where GP's pointer picks the donors.
  const synthetic::Tree tree(synthetic::Params{42, 4, 0.6, 13});
  const auto gp =
      expect_pool_invariant(tree, 4097, gp_static(0.9), nullptr, exhaustive,
                            pools);
  const auto ngp =
      expect_pool_invariant(tree, 4097, ngp_static(0.9), nullptr, exhaustive,
                            pools);
  EXPECT_NE(gp.stats.transfers, ngp.stats.transfers);
}

// The claim pass rejects a pair list before any stack is touched: each lane
// may appear once, donors must be busy and receivers idle.
TEST(Engine, ClaimPassRejectsInvalidPairsBeforeAnyStackMoves) {
  constexpr std::size_t kP = 130;  // spans three plane words
  // Lanes 0..63 busy (two nodes each), 64..129 idle (empty).
  std::vector<search::WorkStack<int>> stacks(kP);
  simd::BitPlane busy(kP);
  simd::BitPlane idle(kP);
  for (std::size_t i = 0; i < kP; ++i) {
    if (i < 64) {
      stacks[i].push(1);
      stacks[i].push(2);
      busy.set(i);
    } else {
      idle.set(i);
    }
  }
  const auto sizes = [&] {
    std::vector<std::size_t> out;
    for (const auto& st : stacks) out.push_back(st.size());
    return out;
  };
  const std::vector<std::size_t> before = sizes();
  const SchemeConfig cfg = gp_static(0.9);
  const std::vector<std::vector<simd::Pair>> bad = {
      {{3, 70}, {3, 71}},     // repeated donor
      {{3, 70}, {4, 70}},     // repeated receiver
      {{3, 70}, {70, 129}},   // a receiver donating in the same round
      {{3, 70}, {100, 71}},   // idle donor
      {{3, 70}, {4, 5}},      // busy receiver
      {{3, 70}, {4, 130}},    // receiver past the machine
  };
  for (const auto& pairs : bad) {
    simd::BitPlane b = busy;
    simd::BitPlane i = idle;
    EXPECT_THROW(claim_transfer_pairs(pairs, b, i, cfg, 0), EngineError)
        << pairs[1].donor << "->" << pairs[1].receiver;
    EXPECT_EQ(sizes(), before);
  }
  // A valid list claims exactly its lanes.
  const std::vector<simd::Pair> good = {{3, 70}, {63, 129}, {0, 64}};
  simd::BitPlane b = busy;
  simd::BitPlane i = idle;
  claim_transfer_pairs(good, b, i, cfg, 0);
  EXPECT_EQ(b.count(), busy.count() - 3);
  EXPECT_EQ(i.count(), idle.count() - 3);
  for (const auto& [d, r] : good) {
    EXPECT_FALSE(b.test(d));
    EXPECT_FALSE(i.test(r));
  }
  EXPECT_EQ(sizes(), before);
}

}  // namespace
}  // namespace simdts::lb
