// End-to-end numerical gradient checks of whole models: perturb individual
// parameters and compare the loss delta with the analytic backward pass.
// This is the strongest correctness guarantee the nn substrate has — if it
// holds, every layer's chain rule composition is right.
#include <ostream>

#include <gtest/gtest.h>

#include "nn/loss.hpp"
#include "nn/models.hpp"

namespace fifl::nn {
namespace {

struct GradcheckCase {
  const char* name;
  std::function<std::unique_ptr<Sequential>(util::Rng&)> factory;
  tensor::Shape input_shape;
  std::size_t classes;
  std::size_t stride;  // check every `stride`-th parameter
  double tolerance;
};

// gtest prints a parameter it has no printer for as its raw bytes, and
// `name` is a pointer whose bytes change with every process. The ctest
// names gtest_discover_tests builds from that listing would change with
// every build; printing the case name keeps them stable
// (Models/ModelGradcheck.AnalyticMatchesNumeric/<name>).
void PrintTo(const GradcheckCase& tc, std::ostream* os) { *os << tc.name; }

class ModelGradcheck : public ::testing::TestWithParam<GradcheckCase> {};

TEST_P(ModelGradcheck, AnalyticMatchesNumeric) {
  const auto& tc = GetParam();
  util::Rng rng(42);
  auto model = tc.factory(rng);
  tensor::Tensor x = tensor::Tensor::gaussian(tc.input_shape, rng, 0.0f, 0.5f);
  std::vector<std::int32_t> labels(tc.input_shape[0]);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % tc.classes);
  }

  SoftmaxCrossEntropy loss;
  model->zero_grad();
  (void)loss.forward(model->forward(x), labels);
  model->backward(loss.backward());
  const std::vector<float> analytic = model->flatten_gradients();
  std::vector<float> params = model->flatten_parameters();

  const float eps = 5e-3f;
  std::size_t checked = 0, mismatched = 0;
  for (std::size_t i = 0; i < params.size(); i += tc.stride) {
    const float saved = params[i];
    params[i] = saved + eps;
    model->load_parameters(params);
    const double lp = loss.forward(model->forward(x), labels);
    params[i] = saved - eps;
    model->load_parameters(params);
    const double lm = loss.forward(model->forward(x), labels);
    params[i] = saved;
    const double numeric = (lp - lm) / (2.0 * static_cast<double>(eps));
    // Absolute floor plus a relative band: fp32 central differences on
    // deeper nets carry a few percent of truncation noise.
    const double bound =
        std::max(tc.tolerance, 0.05 * std::abs(static_cast<double>(analytic[i])));
    if (std::abs(static_cast<double>(analytic[i]) - numeric) > bound) {
      ++mismatched;
      // A handful of parameters land next to a ReLU/max-pool kink where
      // the ±eps perturbation crosses the nondifferentiability; those
      // produce legitimate central-difference outliers.
      EXPECT_LT(std::abs(static_cast<double>(analytic[i]) - numeric),
                std::max(10.0 * tc.tolerance,
                         0.25 * std::abs(static_cast<double>(analytic[i]))))
          << tc.name << ": parameter " << i << " grossly wrong";
    }
    ++checked;
  }
  model->load_parameters(params);
  EXPECT_GT(checked, 10u);
  EXPECT_LE(static_cast<double>(mismatched), 0.03 * static_cast<double>(checked))
      << tc.name << ": too many gradient mismatches";
}

INSTANTIATE_TEST_SUITE_P(
    Models, ModelGradcheck,
    ::testing::Values(
        GradcheckCase{"mlp",
                      [](util::Rng& rng) { return make_mlp(6, 8, 3, rng); },
                      {4, 6},
                      3,
                      3,
                      2e-3},
        GradcheckCase{"lenet_tiny",
                      [](util::Rng& rng) {
                        return make_lenet(
                            {.channels = 1, .image_size = 8, .classes = 4}, rng);
                      },
                      {2, 1, 8, 8},
                      4,
                      97,
                      5e-3},
        GradcheckCase{"mini_resnet_tiny",
                      [](util::Rng& rng) {
                        return make_mini_resnet(
                            {.channels = 2, .image_size = 8, .classes = 3}, rng);
                      },
                      {2, 2, 8, 8},
                      3,
                      53,
                      5e-3},
        // Kitchen sink: every deterministic layer type in one graph
        // (Dropout is excluded — its per-forward mask breaks central
        // differences; its backward is covered in test_layers).
        GradcheckCase{"kitchen_sink",
                      [](util::Rng& rng) {
                        auto model = std::make_unique<Sequential>();
                        model->emplace<Conv2d>(
                            tensor::ConvSpec{.in_channels = 1,
                                             .out_channels = 3,
                                             .kernel = 3,
                                             .stride = 1,
                                             .padding = 1},
                            rng);
                        model->emplace<BatchNorm2d>(3);
                        model->emplace<Tanh>();
                        model->emplace<MaxPool2d>(2);
                        model->emplace<Flatten>();
                        model->emplace<Linear>(3 * 4 * 4, 10, rng);
                        model->emplace<Sigmoid>();
                        model->emplace<Linear>(10, 3, rng);
                        return model;
                      },
                      {3, 1, 8, 8},
                      3,
                      17,
                      5e-3}));

}  // namespace
}  // namespace fifl::nn
