// Unit tests for the benchmark's reporting helpers.
#include <gtest/gtest.h>

#include <vector>

#include "adapter.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRankOnUnsortedInput) {
  const auto v = one_to(100);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(100, 0.90));
  EXPECT_FALSE(percentile_supported(99, 0.90));
}

TEST(PercentileTest, MeanAndMedian) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 10}), 4.0);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

Span span(int id, int parent, std::int64_t a, std::int64_t b,
          std::uint64_t request = 1) {
  Span s;
  s.name = "s" + std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  s.request = request;
  return s;
}

TEST(SelfTimeTest, LeafIsItsDuration) {
  const auto self = self_times_ns({span(0, -1, 10, 25)});
  EXPECT_EQ(self[0], 15);
}

TEST(SelfTimeTest, DisjointChildrenAreSubtracted) {
  const auto self = self_times_ns(
      {span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60)});
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Two concurrent children cover [10, 50) together.
  const auto self = self_times_ns(
      {span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 20, 50)});
  EXPECT_EQ(self[0], 60);
}

TEST(SelfTimeTest, ChildOutsideParentIsClipped) {
  const auto self =
      self_times_ns({span(0, -1, 0, 100), span(1, 0, 90, 130)});
  EXPECT_EQ(self[0], 90);
}

TEST(SelfTimeTest, GrandchildrenOnlyReduceTheirParent) {
  const auto self = self_times_ns(
      {span(0, -1, 0, 100), span(1, 0, 0, 50), span(2, 1, 10, 20)});
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTimeTest, RequestsDoNotMix) {
  // Same span ids in another request must not count as children.
  const auto self = self_times_ns(
      {span(0, -1, 0, 100, 1), span(1, 0, 0, 100, 2)});
  EXPECT_EQ(self[0], 100);
}

TEST(SelfTimeTest, LayerSelfTimesAddUpToTheRoot) {
  const std::vector<Span> spans = {span(0, -1, 0, 1000), span(1, 0, 0, 300),
                                   span(2, 0, 300, 900), span(3, 2, 400, 800)};
  const auto self = self_times_ns(spans);
  std::int64_t sum = 0;
  for (auto t : self) sum += t;
  EXPECT_EQ(sum, 1000);
}

TEST(OpenLoopTest, LatenessAndLatencyFromDue) {
  OpenLoopSchedule s{1000, 250};
  EXPECT_EQ(s.due_ns(0), 1000);
  EXPECT_EQ(s.due_ns(4), 2000);
  EXPECT_EQ(s.lateness_ns(4, 1990), 0);  // early is not late
  EXPECT_EQ(s.lateness_ns(4, 2100), 100);
  // A request issued late still has its latency measured from its due
  // time: the stall is charged to it.
  EXPECT_EQ(s.latency_from_due_ns(4, 2300), 300);
}

TEST(OpenLoopTest, StallIsChargedToEveryQueuedRequest) {
  // One request takes 1000 ns on a 250 ns schedule; the next three are
  // issued back to back after it and are all late.
  OpenLoopSchedule s{0, 250};
  std::int64_t clock = 0;
  std::vector<std::int64_t> lat;
  const std::vector<std::int64_t> service = {1000, 10, 10, 10, 10};
  for (std::uint64_t i = 0; i < service.size(); ++i) {
    clock = std::max(clock, s.due_ns(i));
    clock += service[i];
    lat.push_back(s.latency_from_due_ns(i, clock));
  }
  EXPECT_EQ(lat[0], 1000);
  EXPECT_EQ(lat[1], 1010 - 250);
  EXPECT_EQ(lat[2], 1020 - 500);
  EXPECT_EQ(lat[3], 1030 - 750);
  EXPECT_EQ(lat[4], 1040 - 1000);
}

TEST(HistogramTest, QuantileInterpolatesInsideTheBucket) {
  gems::LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.record(5);  // bucket [4, 8)
  for (int i = 0; i < 4; ++i) h.record(9);  // bucket [8, 16)
  // Rank 2 of the 4 samples in [4, 8): halfway through the bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile_us(h, 0.25), 6.0);
  EXPECT_DOUBLE_EQ(histogram_quantile_us(h, 0.5), 8.0);
  EXPECT_DOUBLE_EQ(histogram_quantile_us(h, 1.0), 16.0);
  EXPECT_DOUBLE_EQ(histogram_quantile_us(gems::LatencyHistogram{}, 0.5), 0.0);
}

TEST(HistogramTest, DeltaSubtractsBuckets) {
  gems::LatencyHistogram before;
  before.record(5);
  gems::LatencyHistogram after = before;
  after.record(100);
  const auto d = histogram_delta(after, before);
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.sum_us, 100u);
  EXPECT_DOUBLE_EQ(histogram_quantile_us(d, 1.0), 128.0);
}

}  // namespace
}  // namespace perfbench
