#include "simd/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace simdts::simd {
namespace {

TEST(ThreadPool, SingleLaneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(10, 0);
  pool.parallel_for_lanes_aligned(
      10, 1, [&](unsigned lane, std::size_t b, std::size_t e) {
        EXPECT_EQ(lane, 0u);
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for_lanes_aligned(
      0, 1, [&](unsigned, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

class ThreadPoolLanes : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadPoolLanes, CoversRangeExactlyOnce) {
  ThreadPool pool(GetParam());
  for (std::size_t n : {1ul, 2ul, 7ul, 64ul, 1000ul, 4097ul}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_lanes_aligned(
        n, 1, [&](unsigned, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(ThreadPoolLanes, ChunksAreContiguousAndOrdered) {
  ThreadPool pool(GetParam());
  const std::size_t n = 1001;
  // align 1 is the even split; align 64 is the engine's summary-word split,
  // whose inner boundaries must all land on multiples of 64.
  for (const std::size_t align : {std::size_t{1}, std::size_t{64}}) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::vector<unsigned> lanes;
    pool.parallel_for_lanes_aligned(
        n, align, [&](unsigned lane, std::size_t b, std::size_t e) {
          EXPECT_LT(b, e);
          EXPECT_LT(lane, pool.size());
          const std::lock_guard lock(mu);
          chunks.emplace_back(b, e);
          lanes.push_back(lane);
        });
    std::sort(chunks.begin(), chunks.end());
    std::sort(lanes.begin(), lanes.end());
    EXPECT_EQ(std::adjacent_find(lanes.begin(), lanes.end()), lanes.end())
        << "a lane ran two chunks, align=" << align;
    std::size_t expect = 0;
    for (const auto& [b, e] : chunks) {
      EXPECT_EQ(b, expect);
      EXPECT_EQ(b % align, 0u) << "align=" << align;
      expect = e;
    }
    EXPECT_EQ(expect, n);
  }
}

TEST_P(ThreadPoolLanes, SumIsDeterministic) {
  ThreadPool pool(GetParam());
  const std::size_t n = 100000;
  // One accumulator slot per lane, reduced after the barrier.
  std::vector<std::uint64_t> partial(pool.size(), 0);
  pool.parallel_for_lanes_aligned(
      n, 1, [&](unsigned lane, std::size_t b, std::size_t e) {
        std::uint64_t s = 0;
        for (std::size_t i = b; i < e; ++i) s += i;
        partial[lane] = s;
      });
  const std::uint64_t total =
      std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
  EXPECT_EQ(total, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST_P(ThreadPoolLanes, ReusableAcrossManyDispatches) {
  ThreadPool pool(GetParam());
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 100; ++round) {
    pool.parallel_for_lanes_aligned(
        17, 1, [&](unsigned, std::size_t b, std::size_t e) {
          sum.fetch_add(e - b, std::memory_order_relaxed);
        });
  }
  EXPECT_EQ(sum.load(), 1700u);
}

INSTANTIATE_TEST_SUITE_P(Lanes, ThreadPoolLanes,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_lanes_aligned(
                   100, 1,
                   [&](unsigned, std::size_t b, std::size_t) {
                     if (b == 0) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for_lanes_aligned(
      4, 1, [&](unsigned, std::size_t b, std::size_t e) {
        ok.fetch_add(static_cast<int>(e - b));
      });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, FewerItemsThanLanes) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for_lanes_aligned(
      3, 1, [&](unsigned, std::size_t b, std::size_t e) {
        count.fetch_add(static_cast<int>(e - b));
      });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, OneChunkDispatchRunsInlineAsLaneZero) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  // n <= align: the aligned partition is one chunk, whatever the lane count.
  for (const std::size_t n : {std::size_t{1}, std::size_t{37}, std::size_t{64}}) {
    int calls = 0;
    pool.parallel_for_lanes_aligned(
        n, 64, [&](unsigned lane, std::size_t b, std::size_t e) {
          ++calls;  // unsynchronised on purpose: TSan flags a worker call
          EXPECT_EQ(std::this_thread::get_id(), caller) << "n=" << n;
          EXPECT_EQ(lane, 0u);
          EXPECT_EQ(b, 0u);
          EXPECT_EQ(e, n);
        });
    EXPECT_EQ(calls, 1) << "n=" << n;
  }
  // Two non-empty chunks still go to the workers.
  std::atomic<int> chunks{0};
  pool.parallel_for_lanes_aligned(
      65, 64, [&](unsigned, std::size_t, std::size_t) { ++chunks; });
  EXPECT_EQ(chunks.load(), 2);
}

TEST(ThreadPool, DefaultPicksAtLeastOneLane) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace simdts::simd
