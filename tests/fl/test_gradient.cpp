#include "fl/gradient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fl/simulator.hpp"
#include "util/rng.hpp"

namespace fifl::fl {
namespace {

TEST(Gradient, BasicOps) {
  Gradient g(std::vector<float>{1, -2, 3});
  EXPECT_EQ(g.size(), 3u);
  EXPECT_DOUBLE_EQ(g.squared_norm(), 14.0);
  EXPECT_NEAR(g.norm(), std::sqrt(14.0), 1e-12);
  g.scale(2.0f);
  EXPECT_FLOAT_EQ(g[1], -4.0f);
  g.zero();
  EXPECT_DOUBLE_EQ(g.squared_norm(), 0.0);
}

TEST(Gradient, AxpyAddsScaled) {
  Gradient a(std::vector<float>{1, 1});
  Gradient b(std::vector<float>{2, 4});
  a.axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 3.0f);
}

TEST(Gradient, AxpySizeMismatchThrows) {
  Gradient a(2), b(3);
  EXPECT_THROW(a.axpy(1.0f, b), std::invalid_argument);
}

TEST(Gradient, FiniteDetection) {
  Gradient g(std::vector<float>{1, 2});
  EXPECT_TRUE(g.finite());
  g[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(g.finite());
}

TEST(SlicePlan, EvenSplit) {
  SlicePlan plan(12, 3);
  EXPECT_EQ(plan.servers(), 3u);
  EXPECT_EQ(plan.gradient_size(), 12u);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(plan.slice_size(j), 4u);
}

TEST(SlicePlan, UnevenSplitDistributesRemainderToFront) {
  SlicePlan plan(10, 3);
  EXPECT_EQ(plan.slice_size(0), 4u);
  EXPECT_EQ(plan.slice_size(1), 3u);
  EXPECT_EQ(plan.slice_size(2), 3u);
  EXPECT_EQ(plan.offset(0), 0u);
  EXPECT_EQ(plan.offset(1), 4u);
  EXPECT_EQ(plan.offset(2), 7u);
}

TEST(SlicePlan, SlicesPartitionTheGradient) {
  SlicePlan plan(17, 5);
  std::size_t total = 0;
  for (std::size_t j = 0; j < 5; ++j) total += plan.slice_size(j);
  EXPECT_EQ(total, 17u);
}

TEST(SlicePlan, InvalidConstructionThrows) {
  EXPECT_THROW(SlicePlan(10, 0), std::invalid_argument);
  EXPECT_THROW(SlicePlan(3, 5), std::invalid_argument);
}

TEST(SlicePlan, SliceViewsAliasTheGradient) {
  SlicePlan plan(6, 2);
  Gradient g(std::vector<float>{0, 1, 2, 3, 4, 5});
  auto s1 = plan.slice(g, 1);
  EXPECT_FLOAT_EQ(s1[0], 3.0f);
  s1[0] = 99.0f;
  EXPECT_FLOAT_EQ(g[3], 99.0f);
}

TEST(SlicePlan, SizeMismatchThrows) {
  SlicePlan plan(6, 2);
  Gradient wrong(5);
  EXPECT_THROW((void)plan.slice(wrong, 0), std::invalid_argument);
}

// fl::aggregate, the one Eq. 2 implementation (declared in
// fl/simulator.hpp): G̃ = Σ n_i·G_i / Σ n_i over the accepted uploads.
Upload upload_of(std::vector<float> values, std::size_t samples,
                 bool arrived = true) {
  Upload up;
  up.samples = samples;
  up.gradient = Gradient(std::move(values));
  up.arrived = arrived;
  return up;
}

TEST(WeightedAggregate, MatchesEquationTwo) {
  const std::vector<Upload> uploads{upload_of({1, 0}, 30),
                                    upload_of({0, 1}, 10)};
  const Gradient agg = aggregate(uploads, std::vector<int>{1, 1}, 2);
  EXPECT_FLOAT_EQ(agg[0], 0.75f);
  EXPECT_FLOAT_EQ(agg[1], 0.25f);
}

TEST(WeightedAggregate, ZeroWeightEntriesSkipped) {
  // Rejected and absent uploads carry no weight; with nothing accepted, or
  // no accepted samples, G̃ is zero.
  std::vector<Upload> uploads{upload_of({1, 1}, 10), upload_of({100, 100}, 10),
                              upload_of({-50, -50}, 10, /*arrived=*/false)};
  const std::vector<int> first_and_absent{1, 0, 1};
  const Gradient agg = aggregate(uploads, first_and_absent, 2);
  EXPECT_FLOAT_EQ(agg[0], 1.0f);
  EXPECT_FLOAT_EQ(agg[1], 1.0f);
  const Gradient none = aggregate(uploads, std::vector<int>{0, 0, 0}, 2);
  ASSERT_EQ(none.size(), 2u);
  EXPECT_DOUBLE_EQ(none.squared_norm(), 0.0);
  uploads[0].samples = 0;
  EXPECT_DOUBLE_EQ(aggregate(uploads, first_and_absent, 2).squared_norm(), 0.0);
}

TEST(WeightedAggregate, ErrorsOnBadInput) {
  const std::vector<Upload> uploads{upload_of({1}, 10)};
  EXPECT_THROW((void)aggregate(uploads, std::vector<int>{1, 1}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)aggregate(uploads, std::vector<int>{1}, 2),
               std::invalid_argument);
}

TEST(Recombine, InvertsSplit) {
  util::Rng rng(1);
  SlicePlan plan(11, 4);
  Gradient g(11);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(rng.gaussian());
  }
  // Split(G) = (g^1..g^M)
  std::vector<std::vector<float>> slices;
  for (std::size_t j = 0; j < plan.servers(); ++j) {
    auto view = plan.slice(g, j);
    slices.emplace_back(view.begin(), view.end());
  }
  Gradient back = recombine(plan, slices);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_FLOAT_EQ(back[i], g[i]);
}

TEST(Recombine, SliceCountMismatchThrows) {
  SlicePlan plan(6, 2);
  std::vector<std::vector<float>> slices(1);
  EXPECT_THROW((void)recombine(plan, slices), std::invalid_argument);
}

TEST(Recombine, SliceSizeMismatchThrows) {
  SlicePlan plan(6, 2);
  std::vector<std::vector<float>> slices{{1, 2, 3}, {4, 5}};
  EXPECT_THROW((void)recombine(plan, slices), std::invalid_argument);
}

}  // namespace
}  // namespace fifl::fl
