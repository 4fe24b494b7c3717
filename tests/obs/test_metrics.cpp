#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/thread_pool.hpp"

namespace fifl::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketEdgeCases) {
  // le semantics: a value equal to a bound lands in that bound's bucket.
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);                                    // bucket 0 (<= 1)
  h.observe(1.0);                                    // bucket 0, boundary
  h.observe(std::nextafter(1.0, 2.0));               // bucket 1, just past
  h.observe(10.0);                                   // bucket 1, boundary
  h.observe(100.0);                                  // bucket 2, boundary
  h.observe(100.5);                                  // overflow bucket
  h.observe(std::numeric_limits<double>::infinity());  // overflow bucket
  h.observe(std::nan(""));                           // dropped entirely

  const auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 2u);
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_TRUE(std::isinf(snap.max));
}

TEST(Histogram, SumMinMaxMeanAndReset) {
  Histogram h({10.0});
  h.observe(2.0);
  h.observe(4.0);
  h.observe(6.0);
  auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.sum, 12.0);
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 6.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 4.0);

  h.reset();
  snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.counts[0], 0u);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, GetOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  Histogram& h1 = reg.histogram("x.ms", std::vector<double>{1.0, 2.0});
  // Second lookup ignores (different) bounds — first creation wins.
  Histogram& h2 = reg.histogram("x.ms", std::vector<double>{99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));

  // Empty bounds => default latency buckets.
  Histogram& d = reg.histogram("y.ms");
  EXPECT_EQ(d.bounds(), Histogram::default_latency_bounds_ms());
}

TEST(MetricsRegistry, SnapshotAndResetCoverAllInstruments) {
  MetricsRegistry reg;
  reg.counter("c1").inc(5);
  reg.gauge("g1").set(1.25);
  reg.histogram("h1", std::vector<double>{1.0}).observe(0.5);

  auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c1");
  EXPECT_EQ(snap.counters[0].second, 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 1.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);

  reg.reset();
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters[0].second, 0u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.0);
  EXPECT_EQ(snap.histograms[0].second.count, 0u);
}

TEST(MetricsRegistry, SnapshotJsonParses) {
  MetricsRegistry reg;
  reg.counter("fl.rounds").inc(7);
  reg.gauge("fl.loss").set(0.125);
  reg.histogram("fl.ms", std::vector<double>{1.0, 10.0}).observe(3.0);

  const JsonValue v = json_parse(reg.snapshot().to_json());
  EXPECT_EQ(v.at("counters").at("fl.rounds").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("fl.loss").as_number(), 0.125);
  const JsonValue& h = v.at("histograms").at("fl.ms");
  EXPECT_EQ(h.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").as_number(), 3.0);
  ASSERT_EQ(h.at("buckets").array.size(), 3u);  // 2 bounds + overflow
  EXPECT_EQ(h.at("buckets").array[1].at("count").as_number(), 1.0);
}

TEST(MetricsRegistry, SnapshotCsvHasOneRowPerScalar) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  const std::string csv = reg.snapshot().to_csv();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,c,value,1"), std::string::npos);
}

// The concurrency hammer from the issue: many ThreadPool workers hitting
// the same registry — both pre-registered handles and racing
// get-or-create lookups — must lose no increments.
TEST(MetricsRegistry, ConcurrentHammerLosesNothing) {
  MetricsRegistry reg;
  util::ThreadPool pool(8);
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kItersPerTask = 5000;

  Counter& shared = reg.counter("hammer.shared");
  Histogram& hist = reg.histogram("hammer.ms", std::vector<double>{0.25, 0.5, 0.75});

  std::vector<std::future<void>> futures;
  for (std::size_t t = 0; t < kTasks; ++t) {
    futures.push_back(pool.submit([&reg, &shared, &hist, t] {
      for (std::size_t i = 0; i < kItersPerTask; ++i) {
        shared.inc();
        // Racing get-or-create on a handful of names.
        reg.counter(i % 2 == 0 ? "hammer.even" : "hammer.odd").inc();
        hist.observe(static_cast<double>((t + i) % 4) * 0.25);
        reg.gauge("hammer.gauge").set(static_cast<double>(i));
        if (i % 100 == 0) (void)reg.snapshot();  // readers race writers
      }
    }));
  }
  for (auto& f : futures) f.get();

  EXPECT_EQ(shared.value(), kTasks * kItersPerTask);
  EXPECT_EQ(reg.counter("hammer.even").value() +
                reg.counter("hammer.odd").value(),
            kTasks * kItersPerTask);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, kTasks * kItersPerTask);
  std::uint64_t bucket_total = 0;
  for (const auto c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.75);
}

TEST(ScopedTimer, RecordsIntoHistogram) {
  Histogram h(Histogram::default_latency_bounds_ms());
  {
    ScopedTimer timer(h);
    EXPECT_GE(timer.elapsed_ms(), 0.0);
  }
  EXPECT_EQ(h.count(), 1u);

  // stop() detaches: a stopped timer records exactly once.
  ScopedTimer timer(h);
  const double first = timer.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(timer.stop(), first);
  EXPECT_EQ(h.count(), 2u);
}

}  // namespace
}  // namespace fifl::obs
