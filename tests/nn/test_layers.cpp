#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"

namespace fifl::nn {
namespace {

TEST(Linear, ForwardComputesAffineMap) {
  util::Rng rng(1);
  Linear fc(2, 3, rng);
  // Overwrite with known weights.
  auto params = fc.parameters();
  ASSERT_EQ(params.size(), 2u);
  params[0]->value = tensor::Tensor({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  params[1]->value = tensor::Tensor({3}, std::vector<float>{0.5f, -0.5f, 0.0f});
  tensor::Tensor x({1, 2}, std::vector<float>{10, 20});
  tensor::Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 50.5f);
  EXPECT_FLOAT_EQ(y(0, 1), 109.5f);
  EXPECT_FLOAT_EQ(y(0, 2), 170.0f);
}

TEST(Linear, RejectsWrongInputShape) {
  util::Rng rng(2);
  Linear fc(4, 2, rng);
  tensor::Tensor bad({1, 3});
  EXPECT_THROW((void)fc.forward(bad), std::invalid_argument);
}

TEST(Linear, BackwardAccumulatesGradients) {
  util::Rng rng(3);
  Linear fc(2, 2, rng);
  tensor::Tensor x({1, 2}, std::vector<float>{1, 2});
  (void)fc.forward(x);
  tensor::Tensor gy({1, 2}, std::vector<float>{1, 1});
  (void)fc.backward(gy);
  (void)fc.forward(x);
  (void)fc.backward(gy);
  // Gradients accumulate across backward calls until zero_grad.
  auto params = fc.parameters();
  EXPECT_FLOAT_EQ(params[0]->grad(0, 0), 2.0f);  // 2 * (gy*x) = 2*1*1
  EXPECT_FLOAT_EQ(params[0]->grad(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(params[1]->grad[0], 2.0f);
}

TEST(Linear, BackwardInputGradientIsWTransposedG) {
  util::Rng rng(4);
  Linear fc(2, 2, rng);
  auto params = fc.parameters();
  params[0]->value = tensor::Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  params[1]->value.zero();
  tensor::Tensor x({1, 2}, std::vector<float>{1, 1});
  (void)fc.forward(x);
  tensor::Tensor gy({1, 2}, std::vector<float>{1, 0});
  tensor::Tensor gx = fc.backward(gy);
  EXPECT_FLOAT_EQ(gx(0, 0), 1.0f);  // row 0 of W
  EXPECT_FLOAT_EQ(gx(0, 1), 2.0f);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Eleven values, so the last three run past a whole 8-float register.
  tensor::Tensor x({11}, std::vector<float>{-1, 0, 2, -3, -0.0f, nan, -inf,
                                            inf, -0.0f, nan, -2});
  tensor::Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
  // -0 and NaN are not below zero: they pass unchanged.
  EXPECT_EQ(y[4], 0.0f);
  EXPECT_TRUE(std::signbit(y[4]));
  EXPECT_TRUE(std::isnan(y[5]));
  EXPECT_EQ(y[6], 0.0f);
  EXPECT_FALSE(std::signbit(y[6]));  // a clamped negative is +0
  EXPECT_EQ(y[7], inf);
  EXPECT_TRUE(std::signbit(y[8]));
  EXPECT_TRUE(std::isnan(y[9]));
  EXPECT_FALSE(std::signbit(y[10]));
}

TEST(ReLU, BackwardMasksByInputSign) {
  ReLU relu;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Ten inputs: the last two run past a whole 8-float register.
  tensor::Tensor x({10}, std::vector<float>{-1, 0.5f, 3, 0.0f, -0.0f, nan,
                                            -4, 1, -0.0f, nan});
  (void)relu.forward(x);
  tensor::Tensor g({10}, 10.0f);
  tensor::Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 10.0f);
  EXPECT_FLOAT_EQ(gx[2], 10.0f);
  // ±0 block the gradient, NaN passes it.
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
  EXPECT_FLOAT_EQ(gx[4], 0.0f);
  EXPECT_FLOAT_EQ(gx[5], 10.0f);
  EXPECT_FLOAT_EQ(gx[6], 0.0f);
  EXPECT_FLOAT_EQ(gx[7], 10.0f);
  EXPECT_FLOAT_EQ(gx[8], 0.0f);
  EXPECT_FLOAT_EQ(gx[9], 10.0f);
}

TEST(Tanh, ForwardValuesAndRange) {
  Tanh tanh_layer;
  tensor::Tensor x({3}, std::vector<float>{-100.0f, 0.0f, 1.0f});
  tensor::Tensor y = tanh_layer.forward(x);
  EXPECT_NEAR(y[0], -1.0f, 1e-5f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_NEAR(y[2], std::tanh(1.0f), 1e-6f);
}

TEST(Tanh, BackwardNumericalGradcheck) {
  Tanh tanh_layer;
  util::Rng rng(21);
  tensor::Tensor x = tensor::Tensor::gaussian({16}, rng);
  (void)tanh_layer.forward(x);
  tensor::Tensor ones = tensor::Tensor::ones({16});
  tensor::Tensor g = tanh_layer.backward(ones);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < 16; ++i) {
    const double numeric =
        (std::tanh(static_cast<double>(x[i]) + eps) -
         std::tanh(static_cast<double>(x[i]) - eps)) /
        (2.0 * eps);
    EXPECT_NEAR(g[i], numeric, 1e-4);
  }
}

TEST(Sigmoid, ForwardValuesAndRange) {
  Sigmoid sigmoid;
  tensor::Tensor x({3}, std::vector<float>{-100.0f, 0.0f, 100.0f});
  tensor::Tensor y = sigmoid.forward(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-5f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-5f);
}

TEST(Sigmoid, BackwardPeaksAtZero) {
  Sigmoid sigmoid;
  tensor::Tensor x({2}, std::vector<float>{0.0f, 4.0f});
  (void)sigmoid.forward(x);
  tensor::Tensor ones = tensor::Tensor::ones({2});
  tensor::Tensor g = sigmoid.backward(ones);
  EXPECT_NEAR(g[0], 0.25f, 1e-6f);  // σ'(0) = 0.25
  EXPECT_LT(g[1], g[0]);
}

TEST(Dropout, InvalidProbabilityThrows) {
  EXPECT_THROW(Dropout(-0.1, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0, util::Rng(1)), std::invalid_argument);
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout dropout(0.5, util::Rng(2));
  dropout.set_training(false);
  util::Rng rng(3);
  tensor::Tensor x = tensor::Tensor::gaussian({64}, rng);
  EXPECT_TRUE(dropout.forward(x).allclose(x, 0.0f));
}

TEST(Dropout, TrainModeZeroesAboutPAndRescales) {
  Dropout dropout(0.25, util::Rng(4));
  tensor::Tensor x = tensor::Tensor::ones({10000});
  tensor::Tensor y = dropout.forward(x);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (float v : y.flat()) {
    zeros += (v == 0.0f);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.25, 0.02);
  // Inverted scaling keeps the expectation ~1.
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout dropout(0.5, util::Rng(5));
  tensor::Tensor x = tensor::Tensor::ones({100});
  tensor::Tensor y = dropout.forward(x);
  tensor::Tensor g = dropout.backward(tensor::Tensor::ones({100}));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(g[i], y[i]);  // mask (and scale) identical
  }
}

TEST(Dropout, BackwardWithoutForwardThrows) {
  Dropout dropout(0.5, util::Rng(6));
  tensor::Tensor g = tensor::Tensor::ones({4});
  EXPECT_THROW((void)dropout.backward(g), std::logic_error);
}

TEST(Flatten, RoundTripsShape) {
  Flatten fl;
  tensor::Tensor x({2, 3, 4, 5});
  tensor::Tensor y = fl.forward(x);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 60u);
  tensor::Tensor gx = fl.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(MaxPoolLayer, ForwardBackwardShapes) {
  MaxPool2d pool(2);
  util::Rng rng(5);
  tensor::Tensor x = tensor::Tensor::gaussian({2, 3, 8, 8}, rng);
  tensor::Tensor y = pool.forward(x);
  EXPECT_EQ(y.dim(2), 4u);
  tensor::Tensor gx = pool.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(GlobalAvgPoolLayer, ForwardBackwardShapes) {
  GlobalAvgPool gap;
  util::Rng rng(6);
  tensor::Tensor x = tensor::Tensor::gaussian({2, 5, 4, 4}, rng);
  tensor::Tensor y = gap.forward(x);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(1), 5u);
  tensor::Tensor gx = gap.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Conv2dLayer, ParametersHaveExpectedShapes) {
  util::Rng rng(7);
  Conv2d conv({.in_channels = 3, .out_channels = 8, .kernel = 5, .stride = 1,
               .padding = 2},
              rng);
  auto params = conv.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->value.shape(), (tensor::Shape{8, 3, 5, 5}));
  EXPECT_EQ(params[1]->value.shape(), (tensor::Shape{8}));
  EXPECT_EQ(params[0]->grad.shape(), params[0]->value.shape());
}

TEST(KaimingInit, BoundScalesWithFanIn) {
  util::Rng rng(8);
  tensor::Tensor small({1000});
  tensor::Tensor big({1000});
  kaiming_uniform(small, 10, rng);
  kaiming_uniform(big, 1000, rng);
  double max_small = 0.0, max_big = 0.0;
  for (float v : small.flat()) max_small = std::max(max_small, std::abs(static_cast<double>(v)));
  for (float v : big.flat()) max_big = std::max(max_big, std::abs(static_cast<double>(v)));
  EXPECT_GT(max_small, max_big);
  EXPECT_LE(max_small, std::sqrt(6.0 / 10.0) + 1e-6);
  EXPECT_LE(max_big, std::sqrt(6.0 / 1000.0) + 1e-6);
}

}  // namespace
}  // namespace fifl::nn
