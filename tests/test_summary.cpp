// SummaryPlane invariants (the summary-aware lb kernels built on them are
// pinned to the naive reference in tests/test_lb_kernels.cpp), plus the
// engine's summary maintenance under kill/revive fault plans.
#include "simd/summary.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "lb/engine.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "simd/bitplane.hpp"
#include "simd/thread_pool.hpp"

namespace simdts::simd {
namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E9B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Random plane of `p` lanes where each lane is set with probability
/// (density_pct / 100).  density_pct == 0 gives an empty plane.
BitPlane random_plane(std::size_t p, unsigned density_pct,
                      std::uint64_t& seed) {
  BitPlane plane;
  plane.assign(p, false);
  for (std::size_t i = 0; i < p; ++i) {
    if (splitmix(seed) % 100 < density_pct) plane.set(i);
  }
  return plane;
}

SummaryPlane summary_of(const BitPlane& plane) {
  SummaryPlane s;
  s.assign_for_lanes(plane.size());
  s.rebuild(plane);
  return s;
}

// The sizes every property below sweeps: word boundaries, non-x64 sizes,
// a non-power-of-64 P > 2^16 (the 32-bit-index regression size), and a
// mega-ish power of two.
const std::size_t kSizes[] = {1, 63, 64, 65, 127, 129, 4096, 70001, 1u << 17};

// ---------------------------------------------------------------------------
// SummaryPlane invariants
// ---------------------------------------------------------------------------

TEST(SummaryPlane, RebuildMatchesWordOccupancy) {
  std::uint64_t seed = 1;
  for (const std::size_t p : kSizes) {
    for (const unsigned density : {0u, 1u, 30u, 100u}) {
      const BitPlane plane = random_plane(p, density, seed);
      const SummaryPlane sum = summary_of(plane);
      ASSERT_EQ(sum.size(), plane.words().size());
      for (std::size_t w = 0; w < sum.size(); ++w) {
        EXPECT_EQ(sum.test(w), plane.words()[w] != 0) << "p=" << p;
      }
    }
  }
}

TEST(SummaryPlane, UpdateWordTracksIncrementalWrites) {
  std::uint64_t seed = 2;
  for (const std::size_t p : {65, 4096, 70001}) {
    BitPlane plane = random_plane(static_cast<std::size_t>(p), 20, seed);
    SummaryPlane sum = summary_of(plane);
    const std::size_t nwords = plane.words().size();
    for (int step = 0; step < 2000; ++step) {
      const std::size_t w = splitmix(seed) % nwords;
      // Random word write, clamped to the plane's valid mask (the writer
      // contract: whoever writes a plane word keeps the zero tail).
      const std::uint64_t v = splitmix(seed) & plane.word_mask(w);
      plane.words()[w] = v;
      sum.update_word(w, v);
    }
    const SummaryPlane fresh = summary_of(plane);
    for (std::size_t w = 0; w < nwords; ++w) {
      EXPECT_EQ(sum.test(w), fresh.test(w)) << "p=" << p << " w=" << w;
    }
  }
}

TEST(SummaryPlane, NextOccupiedFindsExactlyTheOccupiedWords) {
  std::uint64_t seed = 3;
  for (const std::size_t p : kSizes) {
    const BitPlane plane = random_plane(p, 7, seed);
    const SummaryPlane sum = summary_of(plane);
    std::vector<std::size_t> via_summary;
    for (std::size_t w = sum.next_occupied(0); w < sum.size();
         w = sum.next_occupied(w + 1)) {
      via_summary.push_back(w);
    }
    std::vector<std::size_t> reference;
    for (std::size_t w = 0; w < plane.words().size(); ++w) {
      if (plane.words()[w] != 0) reference.push_back(w);
    }
    EXPECT_EQ(via_summary, reference) << "p=" << p;
  }
}

TEST(SummaryPlane, NextOccupiedBelowRespectsLimit) {
  std::uint64_t seed = 4;
  const BitPlane plane = random_plane(70001, 10, seed);
  const SummaryPlane sum = summary_of(plane);
  const std::size_t nwords = sum.size();
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t from = splitmix(seed) % (nwords + 2);
    const std::size_t limit = splitmix(seed) % (nwords + 2);
    const std::size_t got = sum.next_occupied_below(from, limit);
    std::size_t want = limit;
    for (std::size_t w = from; w < limit && w < nwords; ++w) {
      if (plane.words()[w] != 0) {
        want = w;
        break;
      }
    }
    EXPECT_EQ(got, want) << "from=" << from << " limit=" << limit;
    EXPECT_TRUE(got == limit || sum.test(got));
  }
}

TEST(SummaryPlane, EmptyAndFullPlanes) {
  for (const std::size_t p : kSizes) {
    BitPlane plane;
    plane.assign(p, false);
    SummaryPlane sum = summary_of(plane);
    EXPECT_EQ(sum.next_occupied(0), sum.size());
    plane.fill(true);
    sum.rebuild(plane);
    for (std::size_t w = 0; w < sum.size(); ++w) {
      EXPECT_EQ(sum.next_occupied(w), w);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine property: summary maintenance survives random kill/revive plans at
// non-x64 P, bit-identically across host thread counts.  (In sanitize
// builds the per-cycle sweep additionally re-verifies every summary word;
// here we pin the result contract.)
// ---------------------------------------------------------------------------

TEST(SummaryEngine, KillRevivePlanDeterministicAcrossThreadsAtNonX64P) {
  const auto& wl = puzzle::test_workloads()[1];
  const puzzle::FifteenPuzzle problem(wl.board());
  const std::uint32_t p = 157;  // not a multiple of 64
  std::vector<fault::FaultEvent> events;
  std::uint64_t seed = 11;
  for (int i = 0; i < 6; ++i) {
    const std::uint32_t pe = static_cast<std::uint32_t>(splitmix(seed) % p);
    const std::uint64_t cycle = 4 + splitmix(seed) % 80;
    events.push_back({cycle, fault::FaultKind::kKillPe, pe, 0});
    events.push_back({cycle + 3 + splitmix(seed) % 20,
                      fault::FaultKind::kRevivePe, pe, 0});
  }
  const fault::FaultPlan plan(events);

  auto run = [&](unsigned threads) {
    ThreadPool pool(threads);
    Machine machine(p, cm2_cost_model(), &pool);
    lb::Engine<puzzle::FifteenPuzzle> engine(problem, machine,
                                             lb::gp_static(0.9));
    engine.arm_faults(&plan);
    return engine.run();
  };
  const lb::RunStats base = run(1);
  EXPECT_GT(base.total.pes_killed, 0u);
  for (const unsigned threads : {2u, 8u}) {
    const lb::RunStats other = run(threads);
    EXPECT_EQ(base, other) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace simdts::simd
