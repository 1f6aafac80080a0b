// The rendezvous primitive on hand-built examples, run through the
// production kernels (packed planes + summaries, as the engine calls them).
#include "simd/rendezvous.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "reference/lb_kernels.hpp"

namespace simdts::simd {
namespace {

constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

std::vector<PeIndex> ranked(const std::vector<std::uint8_t>& flags,
                            PeIndex start_after = kNoPe) {
  const reference::PackedFlags f(flags);
  std::vector<PeIndex> out;
  ranked_into(f.plane, f.summary, start_after, out);
  return out;
}

std::vector<Pair> rendezvous(const std::vector<std::uint8_t>& donors,
                             const std::vector<std::uint8_t>& receivers,
                             PeIndex start_after = kNoPe,
                             std::size_t limit = kNoLimit) {
  const reference::PackedFlags d(donors);
  const reference::PackedFlags r(receivers);
  std::vector<Pair> out;
  rendezvous_into(d.plane, d.summary, r.plane, r.summary, start_after, limit,
                  out);
  return out;
}

TEST(Ranked, PlainOrder) {
  const std::vector<std::uint8_t> flags{1, 0, 1, 0, 1};
  const auto r = ranked(flags);
  EXPECT_EQ(r, (std::vector<PeIndex>{0, 2, 4}));
}

TEST(Ranked, RotatedStartsAfterPointer) {
  const std::vector<std::uint8_t> flags{1, 0, 1, 0, 1};
  // Pointer at 2: walk 3, 4, 0, 1, 2 -> set PEs in order 4, 0, 2.
  const auto r = ranked(flags, 2);
  EXPECT_EQ(r, (std::vector<PeIndex>{4, 0, 2}));
}

TEST(Ranked, PointerAtLastWrapsToStart) {
  const std::vector<std::uint8_t> flags{1, 1, 1};
  const auto r = ranked(flags, 2);
  EXPECT_EQ(r, (std::vector<PeIndex>{0, 1, 2}));
}

TEST(Ranked, PointerOnUnsetPe) {
  const std::vector<std::uint8_t> flags{0, 1, 0, 1};
  const auto r = ranked(flags, 1);  // walk 2, 3, 0, 1
  EXPECT_EQ(r, (std::vector<PeIndex>{3, 1}));
}

TEST(Ranked, EmptyFlags) {
  const std::vector<std::uint8_t> flags;
  EXPECT_TRUE(ranked(flags).empty());
}

TEST(Rendezvous, MatchesEqualCounts) {
  const std::vector<std::uint8_t> donors{1, 0, 1, 0};
  const std::vector<std::uint8_t> receivers{0, 1, 0, 1};
  const auto pairs = rendezvous(donors, receivers);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (Pair{0, 1}));
  EXPECT_EQ(pairs[1], (Pair{2, 3}));
}

TEST(Rendezvous, MoreReceiversThanDonors) {
  // "If I > A then only the first A idle processors are matched."
  const std::vector<std::uint8_t> donors{1, 0, 0, 0};
  const std::vector<std::uint8_t> receivers{0, 1, 1, 1};
  const auto pairs = rendezvous(donors, receivers);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (Pair{0, 1}));
}

TEST(Rendezvous, MoreDonorsThanReceivers) {
  const std::vector<std::uint8_t> donors{1, 1, 1, 0};
  const std::vector<std::uint8_t> receivers{0, 0, 0, 1};
  const auto pairs = rendezvous(donors, receivers);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (Pair{0, 3}));
}

TEST(Rendezvous, NoDonors) {
  const std::vector<std::uint8_t> donors(4, 0);
  const std::vector<std::uint8_t> receivers(4, 1);
  EXPECT_TRUE(rendezvous(donors, receivers).empty());
}

TEST(Rendezvous, DonorsAndReceiversDistinctWithinMatching) {
  const std::vector<std::uint8_t> donors{1, 1, 0, 0, 1, 1};
  const std::vector<std::uint8_t> receivers{0, 0, 1, 1, 0, 0};
  const auto pairs = rendezvous(donors, receivers, 4);
  ASSERT_EQ(pairs.size(), 2u);
  std::vector<bool> donor_seen(6, false);
  std::vector<bool> receiver_seen(6, false);
  for (const auto& p : pairs) {
    EXPECT_TRUE(donors[p.donor]);
    EXPECT_TRUE(receivers[p.receiver]);
    EXPECT_FALSE(donor_seen[p.donor]);
    EXPECT_FALSE(receiver_seen[p.receiver]);
    donor_seen[p.donor] = true;
    receiver_seen[p.receiver] = true;
  }
}

TEST(Rendezvous, RotationChangesDonorsNotReceivers) {
  const std::vector<std::uint8_t> donors{1, 1, 1, 1, 0, 0};
  const std::vector<std::uint8_t> receivers{0, 0, 0, 0, 1, 1};
  const auto plain = rendezvous(donors, receivers);
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_EQ(plain[0], (Pair{0, 4}));
  EXPECT_EQ(plain[1], (Pair{1, 5}));

  const auto rotated = rendezvous(donors, receivers, 1);
  ASSERT_EQ(rotated.size(), 2u);
  EXPECT_EQ(rotated[0], (Pair{2, 4}));
  EXPECT_EQ(rotated[1], (Pair{3, 5}));
}

TEST(Rendezvous, LimitStopsTheWalkEarly) {
  // FESS serves one idle PE per phase: the limit truncates the pairing at
  // the first ranks, and a zero limit pairs nothing.
  const std::vector<std::uint8_t> donors{1, 1, 1, 0, 0, 0};
  const std::vector<std::uint8_t> receivers{0, 0, 0, 1, 1, 1};
  EXPECT_EQ(rendezvous(donors, receivers, 0, 1),
            (std::vector<Pair>{Pair{1, 3}}));
  EXPECT_TRUE(rendezvous(donors, receivers, kNoPe, 0).empty());
}

}  // namespace
}  // namespace simdts::simd
