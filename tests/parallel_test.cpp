#include "util/parallel.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <numeric>
#include <vector>

namespace graphct {
namespace {

TEST(FetchAddTest, ReturnsPreviousValueAndAccumulates) {
  std::int64_t x = 10;
  EXPECT_EQ(fetch_add(x, 5), 10);
  EXPECT_EQ(x, 15);
  EXPECT_EQ(fetch_add(x, -3), 15);
  EXPECT_EQ(x, 12);
}

TEST(FetchAddTest, DoubleVariant) {
  double x = 1.5;
  EXPECT_DOUBLE_EQ(fetch_add(x, 2.25), 1.5);
  EXPECT_DOUBLE_EQ(x, 3.75);
}

TEST(FetchAddTest, ConcurrentCountingIsExact) {
  std::int64_t counter = 0;
#pragma omp parallel for
  for (int i = 0; i < 100000; ++i) {
    fetch_add(counter, 1);
  }
  EXPECT_EQ(counter, 100000);
}

TEST(CompareAndSwapTest, SucceedsOnlyOnMatch) {
  std::int64_t x = 5;
  EXPECT_TRUE(compare_and_swap(x, 5, 9));
  EXPECT_EQ(x, 9);
  EXPECT_FALSE(compare_and_swap(x, 5, 11));
  EXPECT_EQ(x, 9);
}

TEST(AtomicMinTest, OnlyDecreases) {
  std::int64_t x = 10;
  EXPECT_TRUE(atomic_min(x, 3));
  EXPECT_EQ(x, 3);
  EXPECT_FALSE(atomic_min(x, 7));
  EXPECT_EQ(x, 3);
  EXPECT_FALSE(atomic_min(x, 3));
  EXPECT_EQ(x, 3);
}

TEST(ScanTest, EmptyInput) {
  std::vector<std::int64_t> v;
  EXPECT_EQ(exclusive_scan_inplace(v), 0);
}

TEST(ScanTest, SingleElement) {
  std::vector<std::int64_t> v{7};
  EXPECT_EQ(exclusive_scan_inplace(v), 7);
  EXPECT_EQ(v[0], 0);
}

TEST(ScanTest, KnownSequence) {
  std::vector<std::int64_t> v{1, 2, 3, 4};
  EXPECT_EQ(exclusive_scan_inplace(v), 10);
  EXPECT_EQ(v, (std::vector<std::int64_t>{0, 1, 3, 6}));
}

TEST(ScanTest, MatchesStdExclusiveScanOnLargeInput) {
  std::vector<std::int64_t> v(100001);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::int64_t>((i * 2654435761u) % 97);
  }
  std::vector<std::int64_t> expect(v.size());
  std::exclusive_scan(v.begin(), v.end(), expect.begin(), std::int64_t{0});
  const std::int64_t total = std::accumulate(v.begin(), v.end(), std::int64_t{0});
  std::vector<std::int64_t> got(v.size());
  EXPECT_EQ(exclusive_scan(std::span<const std::int64_t>(v.data(), v.size()),
                           std::span<std::int64_t>(got.data(), got.size())),
            total);
  EXPECT_EQ(got, expect);
}

TEST(ScanTest, InPlaceAliasing) {
  std::vector<std::int64_t> v(1000, 1);
  EXPECT_EQ(exclusive_scan_inplace(v), 1000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], static_cast<std::int64_t>(i));
  }
}

TEST(ScanTest, CorrectTotalInsideParallelRegion) {
  // Inside an enclosing parallel region the scan's own region collapses to
  // a single thread (nesting is off); the total must come from the actual
  // team size, not the configured thread count. Regression: the coarse bc
  // engine calls the level compactor — and through it this scan — from
  // worker threads, and the stale block_sum[num_threads()] slot returned 0,
  // silently truncating every BFS level to empty.
  set_num_threads(4);
  std::vector<std::int64_t> totals(4, -1);
#pragma omp parallel num_threads(4)
  {
    const int t = omp_get_thread_num();
    std::vector<std::int64_t> v(1000, 1);
    totals[static_cast<std::size_t>(t)] = exclusive_scan_inplace(v);
  }
  set_num_threads(0);
  for (const auto total : totals) EXPECT_EQ(total, 1000);
}

TEST(ScanTest, BlockPathInsideParallelRegionAndInPlace) {
  // Inputs this long take the blocked path rather than the short-input
  // loop, so the team-size regression above is covered on that path too.
  constexpr std::int64_t kLong = 100000;
  set_num_threads(4);
  std::vector<std::int64_t> totals(4, -1);
  std::vector<int> prefix_ok(4, 0);
#pragma omp parallel num_threads(4)
  {
    const int t = omp_get_thread_num();
    std::vector<std::int64_t> v(static_cast<std::size_t>(kLong), 1);
    totals[static_cast<std::size_t>(t)] = exclusive_scan_inplace(v);
    bool ok = true;
    for (std::int64_t i = 0; i < kLong; ++i) {
      ok = ok && v[static_cast<std::size_t>(i)] == i;
    }
    prefix_ok[static_cast<std::size_t>(t)] = ok ? 1 : 0;
  }
  set_num_threads(0);
  for (const auto total : totals) EXPECT_EQ(total, kLong);
  for (const int ok : prefix_ok) EXPECT_EQ(ok, 1);
}

TEST(ReduceTest, SumAndMax) {
  std::vector<std::int64_t> v{3, 1, 4, 1, 5, 9, 2, 6};
  EXPECT_EQ(reduce_sum(std::span<const std::int64_t>(v.data(), v.size())), 31);
  EXPECT_EQ(reduce_max(std::span<const std::int64_t>(v.data(), v.size())), 9);
  std::vector<std::int64_t> empty;
  EXPECT_EQ(reduce_sum(std::span<const std::int64_t>(empty.data(), 0)), 0);
  EXPECT_EQ(reduce_max(std::span<const std::int64_t>(empty.data(), 0), -7), -7);
}

TEST(ReduceTest, DoubleSum) {
  std::vector<double> v(1000, 0.5);
  EXPECT_DOUBLE_EQ(reduce_sum(std::span<const double>(v.data(), v.size())),
                   500.0);
}

TEST(ParallelFillTest, FillsEveryEntry) {
  std::vector<std::int64_t> v(4567, 0);
  parallel_fill(std::span<std::int64_t>(v.data(), v.size()), -3);
  for (auto x : v) ASSERT_EQ(x, -3);
  std::vector<double> d(123, 0.0);
  parallel_fill(std::span<double>(d.data(), d.size()), 2.5);
  for (auto x : d) ASSERT_DOUBLE_EQ(x, 2.5);
}

TEST(ThreadsTest, NumThreadsPositive) { EXPECT_GE(num_threads(), 1); }

}  // namespace
}  // namespace graphct
