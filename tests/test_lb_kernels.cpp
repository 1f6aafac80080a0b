// Reference-vs-production property suite for the load-balancing primitives.
//
// Each production kernel — simd::ranked_into, simd::rendezvous_into,
// lb::Matcher::match_into and lb::neighbor_pairs_into, the packed,
// summary-hopping walks the engine calls — must agree *exactly* with the
// naive byte-plane (flat, summary-free) reference in
// tests/reference/lb_kernels.hpp on the same occupancy pattern.  The sweep
// covers machine sizes that are not multiples of 64 (and a non-power-of-64
// P > 2^16), sparse through full densities, rotation points across word and
// summary-word boundaries, limits 0, 1, k and unlimited, fault-killed lane
// patterns, and the GP pointer's advance over many successive phases (a
// single divergent phase would cascade into every later one).
//
// BitPlane.* runs machines that fit in one summary word (P <= 4096), where
// only the packed word walk is exercised; SummaryKernels.* runs machines
// spanning several summary words, where the summary hop decides which words
// the walk visits.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lb/config.hpp"
#include "lb/matching.hpp"
#include "reference/lb_kernels.hpp"
#include "simd/rendezvous.hpp"

namespace simdts {
namespace {

using reference::kNoLimit;
using reference::PackedFlags;
using simd::kNoPe;
using simd::Pair;
using simd::PeIndex;

// Word-aligned, one-off-word and sub-word sizes inside one summary word.
const std::size_t kWordSizes[] = {1, 5, 63, 64, 65, 127, 129, 200, 1000};
// Exactly one summary word, one lane past it, and a non-power-of-64 size
// past 2^16 (the 32-bit-index regression size).
const std::size_t kSummarySizes[] = {4096, 4097, 70001};

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E9B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Byte plane of `p` lanes, each set with probability density_pct / 100.
std::vector<std::uint8_t> random_bytes(std::size_t p, unsigned density_pct,
                                       std::uint64_t& seed) {
  std::vector<std::uint8_t> v(p);
  for (auto& x : v) x = splitmix(seed) % 100 < density_pct ? 1 : 0;
  return v;
}

/// Busy and idle planes as the engine holds them: disjoint (busy wins a
/// collision), so a lane is busy, idle, or neither.
struct Occupancy {
  std::vector<std::uint8_t> busy;
  std::vector<std::uint8_t> idle;
};

Occupancy random_occupancy(std::size_t p, unsigned busy_pct,
                           unsigned idle_pct, std::uint64_t& seed) {
  Occupancy o{random_bytes(p, busy_pct, seed),
              random_bytes(p, idle_pct, seed)};
  for (std::size_t i = 0; i < p; ++i) {
    if (o.busy[i] != 0) o.idle[i] = 0;
  }
  return o;
}

/// Rotation points: unrotated, both ends, the middle, a word boundary, a
/// summary-word boundary, and a few random lanes.
std::vector<PeIndex> rotations(std::size_t p, std::uint64_t& seed) {
  std::vector<PeIndex> starts = {kNoPe, 0, static_cast<PeIndex>(p - 1),
                                 static_cast<PeIndex>(p / 2)};
  if (p > 64) starts.push_back(63);
  if (p > 4096) starts.push_back(4095);
  for (int i = 0; i < 3; ++i) {
    starts.push_back(static_cast<PeIndex>(splitmix(seed) % p));
  }
  return starts;
}

std::vector<PeIndex> ranked(const std::vector<std::uint8_t>& flags,
                            PeIndex start_after) {
  const PackedFlags f(flags);
  std::vector<PeIndex> out;
  simd::ranked_into(f.plane, f.summary, start_after, out);
  return out;
}

std::vector<Pair> rendezvous(const Occupancy& o, PeIndex start_after,
                             std::size_t limit) {
  const PackedFlags d(o.busy);
  const PackedFlags r(o.idle);
  std::vector<Pair> out;
  simd::rendezvous_into(d.plane, d.summary, r.plane, r.summary, start_after,
                        limit, out);
  return out;
}

std::vector<Pair> neighbor_pairs(const Occupancy& o) {
  const PackedFlags b(o.busy);
  const PackedFlags i(o.idle);
  std::vector<Pair> out;
  lb::neighbor_pairs_into(b.plane, b.summary, i.plane, out);
  return out;
}

/// Drives a production and a reference Matcher through `phases` successive
/// rounds of evolving occupancy; every round's pairs and the pointer after
/// it must agree.
void expect_matchers_agree(lb::MatchScheme scheme, std::size_t p,
                           int phases, std::uint64_t& seed,
                           const std::vector<std::uint8_t>* dead = nullptr) {
  lb::Matcher production(scheme);
  reference::Matcher ref(scheme);
  std::vector<Pair> got;
  for (int phase = 0; phase < phases; ++phase) {
    Occupancy o = random_occupancy(
        p, static_cast<unsigned>(splitmix(seed) % 60),
        static_cast<unsigned>(splitmix(seed) % 60), seed);
    if (dead != nullptr) {
      for (std::size_t i = 0; i < p; ++i) {
        if ((*dead)[i] != 0) o.busy[i] = o.idle[i] = 0;
      }
    }
    // Limits 1 (FESS) and a small k interleave with unlimited rounds; each
    // still advances the GP pointer to its last donor.
    const std::size_t limit =
        phase % 4 == 1 ? 1 : (phase % 4 == 3 ? 7 : kNoLimit);
    const PackedFlags b(o.busy);
    const PackedFlags i(o.idle);
    production.match_into(b.plane, b.summary, i.plane, i.summary, limit, got);
    EXPECT_EQ(got, ref.match(o.busy, o.idle, limit))
        << "p=" << p << " phase=" << phase;
    EXPECT_EQ(production.pointer(), ref.pointer())
        << "p=" << p << " phase=" << phase;
  }
}

void expect_ranked_agrees(std::size_t p, std::uint64_t& seed) {
  for (const unsigned density : {0u, 1u, 30u, 100u}) {
    const auto flags = random_bytes(p, density, seed);
    for (const PeIndex start : rotations(p, seed)) {
      EXPECT_EQ(ranked(flags, start), reference::ranked(flags, start))
          << "p=" << p << " density=" << density << " start=" << start;
    }
  }
}

void expect_rendezvous_agrees(std::size_t p, std::uint64_t& seed) {
  for (const unsigned density : {2u, 40u, 90u}) {
    const Occupancy o = random_occupancy(p, density, 100 - density, seed);
    for (const PeIndex start : rotations(p, seed)) {
      for (const std::size_t limit :
           {std::size_t{0}, std::size_t{1}, std::size_t{7}, kNoLimit}) {
        EXPECT_EQ(rendezvous(o, start, limit),
                  reference::rendezvous(o.busy, o.idle, start, limit))
            << "p=" << p << " density=" << density << " start=" << start
            << " limit=" << limit;
      }
    }
  }
}

void expect_neighbor_pairs_agree(std::size_t p, std::uint64_t& seed) {
  for (const unsigned density : {0u, 10u, 50u, 100u}) {
    const Occupancy o = random_occupancy(p, density, 100 - density, seed);
    EXPECT_EQ(neighbor_pairs(o), reference::neighbor_pairs(o.busy, o.idle))
        << "p=" << p << " density=" << density;
  }
}

TEST(BitPlane, RankedMatchesByteKernelWithAndWithoutRotation) {
  std::uint64_t seed = 1;
  for (const std::size_t p : kWordSizes) expect_ranked_agrees(p, seed);
}

TEST(SummaryKernels, RankedMatchesFlatAcrossSizesAndRotations) {
  std::uint64_t seed = 11;
  for (const std::size_t p : kSummarySizes) expect_ranked_agrees(p, seed);
}

TEST(BitPlane, RendezvousMatchesByteKernel) {
  std::uint64_t seed = 2;
  for (const std::size_t p : kWordSizes) expect_rendezvous_agrees(p, seed);
}

TEST(SummaryKernels, RendezvousMatchesFlatAcrossLimitsAndRotations) {
  std::uint64_t seed = 12;
  for (const std::size_t p : kSummarySizes) expect_rendezvous_agrees(p, seed);

  // The mega-P shape: P = 2^20 with 1024 busy and 1024 idle lanes hashed
  // over it (busy wins a collision), so the kernel hops across mostly empty
  // summary words.
  const std::size_t p = std::size_t{1} << 20;
  Occupancy o{std::vector<std::uint8_t>(p), std::vector<std::uint8_t>(p)};
  for (int i = 0; i < 1024; ++i) {
    o.busy[splitmix(seed) % p] = 1;
    o.idle[splitmix(seed) % p] = 1;
  }
  for (std::size_t i = 0; i < p; ++i) {
    if (o.busy[i] != 0) o.idle[i] = 0;
  }
  const std::vector<Pair> pairs = rendezvous(o, kNoPe, kNoLimit);
  EXPECT_FALSE(pairs.empty());
  EXPECT_EQ(pairs, reference::rendezvous(o.busy, o.idle, kNoPe, kNoLimit));
  for (const PeIndex start : rotations(p, seed)) {
    EXPECT_EQ(rendezvous(o, start, kNoLimit),
              reference::rendezvous(o.busy, o.idle, start, kNoLimit))
        << "p=2^20 start=" << start;
  }
}

TEST(BitPlane, MatcherBitAndBytePlanesAgreeAcrossGpPhases) {
  std::uint64_t seed = 3;
  for (const lb::MatchScheme scheme :
       {lb::MatchScheme::kGP, lb::MatchScheme::kNGP}) {
    for (const std::size_t p :
         {std::size_t{5}, std::size_t{65}, std::size_t{200}}) {
      expect_matchers_agree(scheme, p, 12, seed);
    }
  }
}

TEST(SummaryKernels, MatcherMatchesFlatIncludingPointerAdvance) {
  std::uint64_t seed = 13;
  for (const lb::MatchScheme scheme :
       {lb::MatchScheme::kGP, lb::MatchScheme::kNGP}) {
    for (const std::size_t p : {std::size_t{4097}, std::size_t{70001}}) {
      expect_matchers_agree(scheme, p, 12, seed);
    }
  }
}

TEST(BitPlane, NeighborPairsMatchByteKernel) {
  std::uint64_t seed = 4;
  for (const std::size_t p : kWordSizes) expect_neighbor_pairs_agree(p, seed);
}

TEST(SummaryKernels, NeighborPairsMatchFlatIncludingWraparound) {
  std::uint64_t seed = 14;
  for (const std::size_t p : kSummarySizes) {
    expect_neighbor_pairs_agree(p, seed);
  }
  // The ring wrap (P-1 -> 0) at a non-power-of-64 size past 2^16, where the
  // busy lane sits alone in the last summary word.
  Occupancy wrap{std::vector<std::uint8_t>(70001, 0),
                 std::vector<std::uint8_t>(70001, 0)};
  wrap.busy[70000] = 1;
  wrap.idle[0] = 1;
  EXPECT_EQ(neighbor_pairs(wrap), (std::vector<Pair>{Pair{70000, 0}}));
  EXPECT_EQ(neighbor_pairs(wrap), reference::neighbor_pairs(wrap.busy,
                                                            wrap.idle));
}

TEST(BitPlane, KernelsAgreeWithFaultKilledLanes) {
  // A killed lane is cleared in every plane, so whole words — and at mega-P
  // whole summary words — can go dark mid-run.  The summary hop must skip
  // them without changing a single rank, pair, or pointer move.
  std::uint64_t seed = 5;
  for (const std::size_t p : {std::size_t{300}, std::size_t{70001}}) {
    std::vector<std::uint8_t> dead(p, 0);
    for (std::size_t i = 0; i < p; ++i) {
      const bool dead_word = i >= 64 && i < 128;
      const bool dead_summary_word = p > 8192 && i >= 4096 && i < 8192;
      const bool scattered = i % 7 == 0;
      const bool ring_wrap_donor = i == p - 1;
      dead[i] = dead_word || dead_summary_word || scattered || ring_wrap_donor;
    }
    Occupancy o = random_occupancy(p, 60, 60, seed);
    for (std::size_t i = 0; i < p; ++i) {
      if (dead[i] != 0) o.busy[i] = o.idle[i] = 0;
    }
    for (const PeIndex start : rotations(p, seed)) {
      EXPECT_EQ(ranked(o.busy, start), reference::ranked(o.busy, start))
          << "p=" << p << " start=" << start;
      for (const std::size_t limit : {std::size_t{1}, kNoLimit}) {
        EXPECT_EQ(rendezvous(o, start, limit),
                  reference::rendezvous(o.busy, o.idle, start, limit))
            << "p=" << p << " start=" << start << " limit=" << limit;
      }
    }
    EXPECT_EQ(neighbor_pairs(o), reference::neighbor_pairs(o.busy, o.idle))
        << "p=" << p;
    expect_matchers_agree(lb::MatchScheme::kGP, p, 10, seed, &dead);
  }
}

}  // namespace
}  // namespace simdts
