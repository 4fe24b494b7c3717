// Unit tests of the benchmark's measurement helpers: the percentile
// reporting rule, metrics-snapshot differencing, and span self times.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, P90OfHundredSamplesHasTenBeyond) {
  const Percentile p = percentile(one_to(100), 0.9);
  EXPECT_EQ(p.value, 90.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.meets_rule());
}

TEST(Percentile, P90OfNinetyNineSamplesFailsTheRule) {
  const Percentile p = percentile(one_to(99), 0.9);
  EXPECT_EQ(p.value, 90.0);
  EXPECT_EQ(p.beyond, 9u);
  EXPECT_FALSE(p.meets_rule());
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.5).value, 100.0);
  EXPECT_EQ(percentile(v, 1.0).value, 200.0);
  EXPECT_EQ(percentile(v, 1.0).beyond, 0u);
}

TEST(Percentile, MinimumSampleCounts) {
  EXPECT_EQ(min_samples_for(0.9), 100u);
  EXPECT_EQ(min_samples_for(0.5), 20u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.9), std::invalid_argument);
  EXPECT_THROW(percentile(one_to(10), 0.0), std::invalid_argument);
  EXPECT_THROW(percentile(one_to(10), 1.5), std::invalid_argument);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(SnapshotDelta, CountersAndHistograms) {
  fifl::obs::MetricsRegistry registry;
  fifl::obs::Counter& sent = registry.counter("net.msgs_tx");
  fifl::obs::Histogram& phase = registry.histogram("net.phase.collect_ms");
  sent.inc(5);
  phase.observe(2.0);
  const auto before = registry.snapshot();
  sent.inc(3);
  phase.observe(4.0);
  phase.observe(6.0);
  registry.counter("chain.records_appended").inc(7);  // created after `before`
  const auto after = registry.snapshot();

  EXPECT_EQ(counter_delta(before, after, "net.msgs_tx"), 3u);
  EXPECT_EQ(counter_delta(before, after, "chain.records_appended"), 7u);
  const HistogramDelta d = histogram_delta(before, after, "net.phase.collect_ms");
  EXPECT_EQ(d.count, 2u);
  EXPECT_DOUBLE_EQ(d.sum, 10.0);
}

TEST(SnapshotDelta, ResetOrMissingInstrumentThrows) {
  fifl::obs::MetricsRegistry registry;
  registry.counter("a").inc(4);
  registry.histogram("h").observe(1.0);
  const auto before = registry.snapshot();
  registry.reset();
  const auto after = registry.snapshot();
  EXPECT_THROW(counter_delta(before, after, "a"), std::runtime_error);
  EXPECT_THROW(histogram_delta(before, after, "h"), std::runtime_error);
  EXPECT_THROW(counter_delta(before, after, "never.registered"), std::runtime_error);
  EXPECT_THROW(histogram_delta(before, after, "never.registered"),
               std::runtime_error);
}

TEST(SelfTimes, SequentialChildrenAddUpToTheParent) {
  const std::vector<Span> spans = {
      {"round", 1, 0.0, 10.0, kNoParent},
      {"local_train", 1, 0.0, 6.0, 0},
      {"aggregate", 1, 6.0, 8.0, 0},
      {"contribution", 1, 6.0, 7.5, 2},
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 2.0);
  EXPECT_DOUBLE_EQ(self[1], 6.0);
  EXPECT_DOUBLE_EQ(self[2], 0.5);
  EXPECT_DOUBLE_EQ(self[3], 1.5);
  EXPECT_DOUBLE_EQ(std::accumulate(self.begin(), self.end(), 0.0), 10.0);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {"round", 0, 0.0, 10.0, kNoParent},
      {"send", 0, 1.0, 5.0, 0},
      {"send", 0, 3.0, 7.0, 0},
      {"recv", 0, 8.0, 9.0, 0},
  };
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 10.0 - 6.0 - 1.0);
}

TEST(SelfTimes, RejectsDanglingParent) {
  const std::vector<Span> spans = {{"x", 0, 0.0, 1.0, 4}};
  EXPECT_THROW(self_times(spans), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
