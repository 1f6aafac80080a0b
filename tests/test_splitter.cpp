#include "search/splitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

namespace simdts::search {
namespace {

WorkStack<int> make_stack(std::size_t n) {
  WorkStack<int> s;
  for (std::size_t i = 0; i < n; ++i) s.push(static_cast<int>(i));
  return s;
}

/// Splits `donor` into a fresh stack and returns its nodes bottom-to-top.
std::vector<int> split(WorkStack<int>& donor, SplitStrategy strategy) {
  WorkStack<int> receiver;
  split_into(donor, strategy, receiver);
  std::vector<int> out;
  for (std::size_t i = 0; i < receiver.size(); ++i) out.push_back(receiver[i]);
  return out;
}

using Param = std::tuple<SplitStrategy, std::size_t>;

class SplitInvariants : public ::testing::TestWithParam<Param> {};

TEST_P(SplitInvariants, BothPartsNonEmptyAndUnionPreserved) {
  const auto [strategy, n] = GetParam();
  WorkStack<int> donor = make_stack(n);
  const std::vector<int> donated = split(donor, strategy);

  EXPECT_FALSE(donated.empty());
  EXPECT_FALSE(donor.empty());
  EXPECT_EQ(donated.size() + donor.size(), n);

  std::vector<int> all(donated);
  for (std::size_t i = 0; i < donor.size(); ++i) all.push_back(donor[i]);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(all[i], static_cast<int>(i));
  }
}

TEST_P(SplitInvariants, DonatedOrderIsBottomToTop) {
  const auto [strategy, n] = GetParam();
  WorkStack<int> donor = make_stack(n);
  const std::vector<int> donated = split(donor, strategy);
  EXPECT_TRUE(std::is_sorted(donated.begin(), donated.end()));
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSizes, SplitInvariants,
    ::testing::Combine(::testing::Values(SplitStrategy::kBottomNode,
                                         SplitStrategy::kHalf,
                                         SplitStrategy::kTopNode),
                       ::testing::Values(2u, 3u, 4u, 7u, 16u, 101u)));

TEST(Splitter, BottomNodeTakesShallowest) {
  WorkStack<int> donor = make_stack(5);
  const auto donated = split(donor, SplitStrategy::kBottomNode);
  EXPECT_EQ(donated, (std::vector<int>{0}));
  EXPECT_EQ(donor.bottom(), 1);
}

TEST(Splitter, TopNodeTakesDeepest) {
  WorkStack<int> donor = make_stack(5);
  const auto donated = split(donor, SplitStrategy::kTopNode);
  EXPECT_EQ(donated, (std::vector<int>{4}));
  EXPECT_EQ(donor.top(), 3);
}

TEST(Splitter, HalfTakesEveryOtherFromBottom) {
  WorkStack<int> donor = make_stack(6);
  const auto donated = split(donor, SplitStrategy::kHalf);
  EXPECT_EQ(donated, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(donor.size(), 3u);
  EXPECT_EQ(donor.bottom(), 1);
  EXPECT_EQ(donor.top(), 5);
}

TEST(Splitter, HalfOnOddSizeDonatesCeilHalf) {
  WorkStack<int> donor = make_stack(7);
  const auto donated = split(donor, SplitStrategy::kHalf);
  EXPECT_EQ(donated.size(), 4u);
  EXPECT_EQ(donor.size(), 3u);
}

TEST(Splitter, HalfAlphaIsBalanced) {
  // The alpha of the half split must stay near 0.5 across stack sizes.
  for (std::size_t n : {2u, 5u, 9u, 33u, 1000u}) {
    WorkStack<int> donor = make_stack(n);
    const auto donated = split(donor, SplitStrategy::kHalf);
    const double alpha =
        static_cast<double>(donated.size()) / static_cast<double>(n);
    EXPECT_GE(alpha, 0.45) << n;
    EXPECT_LE(alpha, 0.75) << n;
  }
}

TEST(Splitter, ReceivePreservesDepthOrder) {
  WorkStack<int> donor = make_stack(6);
  WorkStack<int> receiver;
  split_into(donor, SplitStrategy::kHalf, receiver);
  // Received 0, 2, 4 bottom-to-top: popping gives deepest first.
  EXPECT_EQ(receiver.pop(), 4);
  EXPECT_EQ(receiver.pop(), 2);
  EXPECT_EQ(receiver.pop(), 0);
}

TEST(Splitter, ReceiveAppendsAboveExistingWork) {
  WorkStack<int> receiver;
  receiver.push(100);
  WorkStack<int> donated;
  donated.push(1);
  donated.push(2);
  receive(receiver, std::move(donated));
  EXPECT_TRUE(donated.empty());
  EXPECT_EQ(receiver.size(), 3u);
  EXPECT_EQ(receiver.bottom(), 100);
  EXPECT_EQ(receiver.pop(), 2);
  EXPECT_EQ(receiver.pop(), 1);
}

TEST(Splitter, SplitIntoAppendsAboveExistingWork) {
  // The MIMD payload path: a receiver that already holds work keeps it at
  // the bottom and gets the donation on top, bottom-to-top.
  WorkStack<int> donor = make_stack(4);
  WorkStack<int> receiver;
  receiver.push(100);
  split_into(donor, SplitStrategy::kHalf, receiver);
  EXPECT_EQ(receiver.size(), 3u);
  EXPECT_EQ(receiver.bottom(), 100);
  EXPECT_EQ(receiver.pop(), 2);
  EXPECT_EQ(receiver.pop(), 0);
}

TEST(Splitter, StrategyNames) {
  EXPECT_STREQ(to_string(SplitStrategy::kBottomNode), "bottom-node");
  EXPECT_STREQ(to_string(SplitStrategy::kHalf), "half");
  EXPECT_STREQ(to_string(SplitStrategy::kTopNode), "top-node");
}

}  // namespace
}  // namespace simdts::search
