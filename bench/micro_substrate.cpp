// Micro-benchmarks of the substrate primitives (google-benchmark).
//
// These are not paper experiments; they document the cost of the pieces the
// simulation is built from — node expansion, matching, ring pairing — so
// that the simulated cost model's ratio (t_lb / t_expand) can be put in
// context with the emulator's actual host-side costs.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "lb/matching.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/heuristic.hpp"
#include "search/work_stack.hpp"
#include "simd/bitplane.hpp"
#include "simd/rendezvous.hpp"
#include "simd/summary.hpp"
#include "synthetic/tree.hpp"

namespace {

using namespace simdts;

/// Random busy/idle occupancy (complementary, like a live machine) as packed
/// planes plus their occupancy summaries.
struct Occupancy {
  simd::BitPlane busy_plane;
  simd::BitPlane idle_plane;
  simd::SummaryPlane busy_summary;
  simd::SummaryPlane idle_summary;
};

Occupancy make_occupancy(std::size_t p, std::uint32_t seed,
                         unsigned busy_of_10) {
  Occupancy o;
  std::mt19937 rng(seed);
  o.busy_plane.assign(p, false);
  o.idle_plane.assign(p, false);
  for (std::size_t i = 0; i < p; ++i) {
    const bool busy = (rng() % 10) < busy_of_10;
    o.busy_plane.set(i, busy);
    o.idle_plane.set(i, !busy);
  }
  o.busy_summary.assign_for_lanes(p);
  o.idle_summary.assign_for_lanes(p);
  o.busy_summary.rebuild(o.busy_plane);
  o.idle_summary.rebuild(o.idle_plane);
  return o;
}

void BM_PuzzleExpand(benchmark::State& state) {
  const puzzle::FifteenPuzzle problem(puzzle::random_walk(7, 80));
  std::vector<puzzle::FifteenPuzzle::Node> frontier{problem.root()};
  std::vector<puzzle::FifteenPuzzle::Node> children;
  search::NextBound nb;
  std::size_t i = 0;
  std::uint64_t expanded = 0;
  for (auto _ : state) {
    children.clear();
    problem.expand(frontier[i], search::kUnbounded, children, nb);
    benchmark::DoNotOptimize(children.data());
    for (const auto& c : children) {
      if (frontier.size() < 4096) frontier.push_back(c);
    }
    i = (i + 1) % frontier.size();
    ++expanded;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(expanded));
}
BENCHMARK(BM_PuzzleExpand);

void BM_PuzzleManhattanFull(benchmark::State& state) {
  const puzzle::Board b = puzzle::random_walk(11, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(puzzle::manhattan(b));
  }
}
BENCHMARK(BM_PuzzleManhattanFull);

void BM_PuzzleLinearConflict(benchmark::State& state) {
  const puzzle::Board b = puzzle::random_walk(11, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(puzzle::linear_conflict(b));
  }
}
BENCHMARK(BM_PuzzleLinearConflict);

void BM_SyntheticExpand(benchmark::State& state) {
  const synthetic::Tree tree(synthetic::Params{5, 4, 0.38, 30});
  std::vector<synthetic::Tree::Node> frontier{tree.root()};
  std::vector<synthetic::Tree::Node> children;
  search::NextBound nb;
  std::size_t i = 0;
  for (auto _ : state) {
    children.clear();
    tree.expand(frontier[i], search::kUnbounded, children, nb);
    benchmark::DoNotOptimize(children.data());
    for (const auto& c : children) {
      if (frontier.size() < 4096) frontier.push_back(c);
    }
    i = (i + 1) % frontier.size();
  }
}
BENCHMARK(BM_SyntheticExpand);

void BM_RendezvousBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 99, 7);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    simd::rendezvous_into(o.busy_plane, o.busy_summary, o.idle_plane,
                          o.idle_summary, 17, static_cast<std::size_t>(-1),
                          pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_RendezvousBitPlane)->Arg(1 << 10)->Arg(1 << 13);

void BM_GpMatchPhaseBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 42, 8);
  lb::Matcher matcher(lb::MatchScheme::kGP);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    matcher.match_into(o.busy_plane, o.busy_summary, o.idle_plane,
                       o.idle_summary, static_cast<std::size_t>(-1), pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_GpMatchPhaseBitPlane)->Arg(1 << 13);

void BM_NeighborPairsBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 21, 5);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    lb::neighbor_pairs_into(o.busy_plane, o.busy_summary, o.idle_plane,
                            pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_NeighborPairsBitPlane)->Arg(1 << 13);

// Batched child staging: the old per-child push path (clear + push_back per
// node) vs the flat staging buffer + run-append the expansion loop now uses.
// Read these two as a parity check, not a race: both variants spend their
// time inside tree.expand, and the staging difference is a handful of
// memory-bound node copies per expansion, so they time within noise of each
// other (~1.0x).  The batched path is shipped because the single run-append
// amortizes the stack's bounds/ownership checks — not because this
// microbenchmark shows a win.
void BM_ChildStagingPerNode(benchmark::State& state) {
  const synthetic::Tree tree(synthetic::Params{5, 4, 0.38, 30});
  search::WorkStack<synthetic::Tree::Node> stack;
  std::vector<synthetic::Tree::Node> children;
  search::NextBound nb;
  stack.push(tree.root());
  for (auto _ : state) {
    if (stack.empty()) stack.push(tree.root());
    const auto n = stack.pop();
    children.clear();
    tree.expand(n, search::kUnbounded, children, nb);
    for (const auto& c : children) {
      if (stack.size() < (1u << 11)) stack.push(c);
    }
    benchmark::DoNotOptimize(stack.size());
  }
}
BENCHMARK(BM_ChildStagingPerNode);

void BM_ChildStagingBatched(benchmark::State& state) {
  const synthetic::Tree tree(synthetic::Params{5, 4, 0.38, 30});
  search::WorkStack<synthetic::Tree::Node> stack;
  std::vector<synthetic::Tree::Node> children;
  search::NextBound nb;
  stack.push(tree.root());
  for (auto _ : state) {
    if (stack.empty()) stack.push(tree.root());
    const auto n = stack.pop();
    const std::size_t staged = children.size();
    tree.expand(n, search::kUnbounded, children, nb);
    const std::size_t added = children.size() - staged;
    if (added != 0 && stack.size() + added <= (1u << 11)) {
      stack.append(children.data() + staged, added);
    }
    children.resize(staged);
    benchmark::DoNotOptimize(stack.size());
  }
}
BENCHMARK(BM_ChildStagingBatched);

}  // namespace

BENCHMARK_MAIN();
