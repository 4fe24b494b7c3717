#include "nn/sequential.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "nn/models.hpp"
#include "tensor/ops.hpp"

namespace fifl::nn {
namespace {

// Two models from the same seed: one trained through backward(), one
// through backward_params(). Their parameter gradients must agree bit for
// bit — skipping the unread input gradient changes nothing else.
void expect_backward_params_matches(
    const std::function<std::unique_ptr<Sequential>(util::Rng&)>& make,
    const tensor::Shape& input_shape, std::size_t outputs) {
  util::Rng rng_a(11), rng_b(11), data_rng(12);
  auto full = make(rng_a);
  auto params_only = make(rng_b);
  const tensor::Tensor x = tensor::Tensor::gaussian(input_shape, data_rng);
  const tensor::Tensor gy =
      tensor::Tensor::gaussian({input_shape[0], outputs}, data_rng);
  (void)full->forward(x);
  const tensor::Tensor gx = full->backward(gy);
  EXPECT_EQ(gx.shape(), input_shape);
  (void)params_only->forward(x);
  params_only->backward_params(gy);
  const std::vector<float> a = full->flatten_gradients();
  const std::vector<float> b = params_only->flatten_gradients();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(Sequential, BackwardParamsMatchesBackwardOnLenet) {
  // Conv2d first: its input gradient is the one skipped.
  expect_backward_params_matches(
      [](util::Rng& rng) {
        return make_lenet({.channels = 1, .image_size = 12, .classes = 10}, rng);
      },
      {3, 1, 12, 12}, 10);
}

TEST(Sequential, BackwardParamsMatchesBackwardBehindParameterFreeLayers) {
  // Flatten first: it is skipped, and the first Linear skips its dX.
  expect_backward_params_matches(
      [](util::Rng& rng) {
        auto model = std::make_unique<Sequential>();
        model->emplace<Flatten>();
        model->emplace<Linear>(16, 8, rng);
        model->emplace<ReLU>();
        model->emplace<Linear>(8, 4, rng);
        return model;
      },
      {5, 1, 4, 4}, 4);
}

TEST(Sequential, NestedSequentialKeepsItsInputGradient) {
  // A nested Sequential is a layer whose caller needs its input gradient
  // (second position), or the first layer that may skip it (first position).
  for (const bool nested_first : {false, true}) {
    expect_backward_params_matches(
        [nested_first](util::Rng& rng) {
          auto inner = std::make_unique<Sequential>();
          inner->emplace<Linear>(6, 6, rng);
          inner->emplace<ReLU>();
          auto model = std::make_unique<Sequential>();
          if (nested_first) {
            model->add(std::move(inner));
            model->emplace<Linear>(6, 3, rng);
          } else {
            model->emplace<Linear>(6, 6, rng);
            model->add(std::move(inner));
            model->emplace<Linear>(6, 3, rng);
          }
          return model;
        },
        {4, 6}, 3);
  }
}

TEST(Sequential, ForwardChainsLayers) {
  util::Rng rng(1);
  Sequential model;
  model.emplace<Linear>(3, 2, rng);
  model.emplace<ReLU>();
  tensor::Tensor x({1, 3}, std::vector<float>{1, 2, 3});
  tensor::Tensor y = model.forward(x);
  EXPECT_EQ(y.dim(1), 2u);
  for (float v : y.flat()) EXPECT_GE(v, 0.0f);  // post-ReLU
}

TEST(Sequential, ParametersAggregateAcrossLayers) {
  util::Rng rng(2);
  Sequential model;
  model.emplace<Linear>(4, 3, rng);
  model.emplace<ReLU>();
  model.emplace<Linear>(3, 2, rng);
  EXPECT_EQ(model.parameters().size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(model.parameter_count(), 4u * 3 + 3 + 3 * 2 + 2);
}

TEST(Sequential, FlattenLoadRoundTrip) {
  util::Rng rng(3);
  Sequential model;
  model.emplace<Linear>(5, 4, rng);
  model.emplace<Linear>(4, 3, rng);
  const std::vector<float> flat = model.flatten_parameters();
  EXPECT_EQ(flat.size(), model.parameter_count());

  Sequential model2;
  util::Rng rng2(99);
  model2.emplace<Linear>(5, 4, rng2);
  model2.emplace<Linear>(4, 3, rng2);
  model2.load_parameters(flat);
  EXPECT_EQ(model2.flatten_parameters(), flat);

  // Same params => same outputs.
  tensor::Tensor x = tensor::Tensor::gaussian({2, 5}, rng);
  EXPECT_TRUE(model.forward(x).allclose(model2.forward(x), 1e-6f));
}

TEST(Sequential, LoadParametersSizeChecks) {
  util::Rng rng(4);
  Sequential model;
  model.emplace<Linear>(2, 2, rng);
  std::vector<float> too_short(5, 0.0f);
  std::vector<float> too_long(7, 0.0f);
  EXPECT_THROW(model.load_parameters(too_short), std::invalid_argument);
  EXPECT_THROW(model.load_parameters(too_long), std::invalid_argument);
}

TEST(Sequential, ZeroGradClearsAllGradients) {
  util::Rng rng(5);
  Sequential model;
  model.emplace<Linear>(3, 3, rng);
  tensor::Tensor x = tensor::Tensor::gaussian({2, 3}, rng);
  tensor::Tensor y = model.forward(x);
  (void)model.backward(y);
  bool any_nonzero = false;
  for (Parameter* p : model.parameters()) {
    for (float v : p->grad.flat()) any_nonzero |= (v != 0.0f);
  }
  EXPECT_TRUE(any_nonzero);
  model.zero_grad();
  for (Parameter* p : model.parameters()) {
    for (float v : p->grad.flat()) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Sequential, GradientsFlattenInParameterOrder) {
  util::Rng rng(6);
  Sequential model;
  model.emplace<Linear>(2, 1, rng);
  tensor::Tensor x({1, 2}, std::vector<float>{3, 4});
  (void)model.forward(x);
  tensor::Tensor gy({1, 1}, std::vector<float>{1});
  (void)model.backward(gy);
  const auto grads = model.flatten_gradients();
  ASSERT_EQ(grads.size(), 3u);  // w(1x2) + b(1)
  EXPECT_FLOAT_EQ(grads[0], 3.0f);
  EXPECT_FLOAT_EQ(grads[1], 4.0f);
  EXPECT_FLOAT_EQ(grads[2], 1.0f);
}

TEST(ResidualBlock, PreservesShapeAndAddsSkip) {
  util::Rng rng(7);
  ResidualBlock block(4, rng);
  // Zero both convolutions: output must equal ReLU(input) = identity for
  // a positive input.
  for (Parameter* p : block.parameters()) p->value.zero();
  tensor::Tensor x = tensor::Tensor::uniform({1, 4, 6, 6}, rng, 0.1f, 1.0f);
  tensor::Tensor y = block.forward(x);
  EXPECT_TRUE(y.allclose(x, 1e-6f));
}

TEST(ResidualBlock, BackwardPassesGradientThroughSkip) {
  util::Rng rng(8);
  ResidualBlock block(2, rng);
  for (Parameter* p : block.parameters()) p->value.zero();
  tensor::Tensor x = tensor::Tensor::uniform({1, 2, 4, 4}, rng, 0.1f, 1.0f);
  (void)block.forward(x);
  tensor::Tensor gy = tensor::Tensor::ones({1, 2, 4, 4});
  tensor::Tensor gx = block.backward(gy);
  // With zero convs, d(out)/d(in) = identity (pre-activation positive).
  EXPECT_TRUE(gx.allclose(gy, 1e-6f));
}

TEST(ResidualBlock, HasFourParameterTensors) {
  util::Rng rng(9);
  ResidualBlock block(3, rng);
  EXPECT_EQ(block.parameters().size(), 4u);
}

}  // namespace
}  // namespace fifl::nn
