// Sequential model container plus a ResidualBlock (two 3x3 convs with an
// identity skip), which together express every architecture the paper
// evaluates (LeNet for MNIST, a small residual CNN standing in for ResNet
// on CIFAR, and MLPs for fast tests).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace fifl::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  Sequential& add(LayerPtr layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  tensor::Tensor forward(const tensor::Tensor& input) override;
  /// Returns the input gradient, as a nested Sequential's caller needs.
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  /// The training step's call: same parameter gradients as backward(),
  /// without the model's input gradient — layers before the first one
  /// with parameters are skipped, and that layer skips its own.
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  // ---- flat parameter vector interop (used by the FL wire format) ----
  /// Total number of trainable scalars.
  std::size_t parameter_count();
  /// Copy all parameter values into one flat vector (layer order).
  std::vector<float> flatten_parameters();
  /// Same, into a caller-provided buffer of exactly parameter_count()
  /// floats — net::ServerNode reuses one θ buffer round after round
  /// instead of allocating a fresh vector per flatten.
  void flatten_parameters_into(std::span<float> out);
  /// Copy all parameter gradients into one flat vector (layer order).
  std::vector<float> flatten_gradients();
  /// Overwrite parameter values from a flat vector; size must match.
  void load_parameters(std::span<const float> flat);
  void zero_grad();

 private:
  /// backward() through layers [first, size), last to first; returns the
  /// gradient at layer `first`'s input. Needs first < size().
  tensor::Tensor backward_from(const tensor::Tensor& grad_output,
                               std::size_t first);

  std::vector<LayerPtr> layers_;
};

/// y = ReLU(conv2(ReLU(conv1(x))) + x). Channel count is preserved so the
/// skip is a plain identity (sufficient for the paper's scale).
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::size_t channels, util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "ResidualBlock"; }

 private:
  Conv2d conv1_;
  ReLU relu1_;
  Conv2d conv2_;
  ReLU relu2_;  // after the skip sum
};

}  // namespace fifl::nn
