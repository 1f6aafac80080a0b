// Property tests for the packed bit-plane substrate: every packed kernel
// (census, set-lane walk, k-th-set selection) must agree *exactly* with a
// plain loop over the byte plane of the same occupancy pattern — including
// non-multiple-of-64 machine sizes.  The load-balancing kernels built on the
// planes (ranking, rendezvous, matching, ring pairing) have their own
// reference-vs-production suite in tests/test_lb_kernels.cpp.
#include "simd/bitplane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "lb/matching.hpp"
#include "reference/lb_kernels.hpp"
#include "simd/rendezvous.hpp"

namespace simdts::simd {
namespace {

// The machine sizes the properties sweep: word-aligned, one-off-word,
// sub-word, and the bench size.
const std::size_t kSizes[] = {1, 5, 63, 64, 65, 127, 128, 200, 1000, 1024};

/// A deterministic random byte plane with the given set-density in percent.
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed,
                                       unsigned percent) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<unsigned> dist(0, 99);
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = dist(rng) < percent ? 1 : 0;
  return v;
}

BitPlane pack(const std::vector<std::uint8_t>& bytes) {
  BitPlane plane(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    plane.set(i, bytes[i] != 0);
  }
  return plane;
}

TEST(BitPlane, AssignFillAndTailInvariant) {
  for (const std::size_t n : kSizes) {
    BitPlane plane(n, true);
    EXPECT_EQ(plane.size(), n);
    EXPECT_EQ(plane.count(), n);
    // The tail of the last word must stay zero even after fill(true).
    EXPECT_EQ(plane.words().back() & ~plane.word_mask(plane.word_count() - 1),
              0u)
        << "n=" << n;
    plane.fill(false);
    EXPECT_TRUE(plane.none());
    EXPECT_EQ(plane.count(), 0u);
  }
}

TEST(BitPlane, SetResetTestRoundTrip) {
  BitPlane plane(130);
  for (const std::size_t i : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                              std::size_t{127}, std::size_t{129}}) {
    EXPECT_FALSE(plane.test(i));
    plane.set(i);
    EXPECT_TRUE(plane.test(i));
    plane.set(i, false);
    EXPECT_FALSE(plane.test(i));
  }
}

TEST(BitPlane, CensusMatchesScalarReference) {
  for (const std::size_t n : kSizes) {
    for (const unsigned pct : {0u, 10u, 50u, 90u, 100u}) {
      const auto bytes = random_bytes(n, 7u * static_cast<std::uint32_t>(n),
                                      pct);
      const BitPlane plane = pack(bytes);
      const auto want = static_cast<std::uint32_t>(
          std::count(bytes.begin(), bytes.end(), std::uint8_t{1}));
      EXPECT_EQ(plane.count(), want) << "n=" << n;
      EXPECT_EQ(plane.none(), want == 0);
    }
  }
}

TEST(BitPlane, ForEachSetVisitsAscendingSetLanes) {
  for (const std::size_t n : kSizes) {
    const auto bytes = random_bytes(n, 13u * static_cast<std::uint32_t>(n),
                                    30);
    const BitPlane plane = pack(bytes);
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes[i] != 0) want.push_back(i);
    }
    std::vector<std::size_t> got;
    for_each_set(plane, [&](std::size_t i) { got.push_back(i); });
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(BitPlane, NthSetSelectsKthBusyPe) {
  for (const std::size_t n : kSizes) {
    const auto bytes = random_bytes(n, 17u * static_cast<std::uint32_t>(n),
                                    35);
    const BitPlane plane = pack(bytes);
    std::vector<std::size_t> set_lanes;
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes[i] != 0) set_lanes.push_back(i);
    }
    for (std::uint32_t k = 0; k < set_lanes.size(); ++k) {
      EXPECT_EQ(nth_set(plane, k), set_lanes[k]) << "n=" << n << " k=" << k;
    }
    // Exhausted selection reports size().
    EXPECT_EQ(nth_set(plane, static_cast<std::uint32_t>(set_lanes.size())), n);
    EXPECT_EQ(nth_set(plane, 0xFFFFu), n);
  }
}

TEST(BitPlane, NeighborPairsCrossWordAndWrapBoundaries) {
  // Donor in bit 63 of word 0, receiver in bit 0 of word 1; and the ring wrap
  // pair (P-1 -> 0).
  const std::size_t n = 130;
  std::vector<std::uint8_t> busy(n, 0);
  std::vector<std::uint8_t> idle(n, 0);
  busy[63] = 1;
  idle[64] = 1;
  busy[n - 1] = 1;
  idle[0] = 1;
  const reference::PackedFlags busy_flags(busy);
  const reference::PackedFlags idle_flags(idle);
  std::vector<Pair> got;
  lb::neighbor_pairs_into(busy_flags.plane, busy_flags.summary,
                          idle_flags.plane, got);
  ASSERT_EQ(got, reference::neighbor_pairs(busy, idle));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Pair{63, 64}));
  EXPECT_EQ(got[1], (Pair{129, 0}));
}

}  // namespace
}  // namespace simdts::simd
