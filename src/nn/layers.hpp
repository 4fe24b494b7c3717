// Concrete layers: Linear, Conv2d, ReLU, MaxPool2d, Flatten,
// GlobalAvgPool. Weight initialisation follows Kaiming/He fan-in scaling,
// which keeps activations stable in the small CNNs the paper uses.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"
#include "tensor/conv.hpp"
#include "util/rng.hpp"

namespace fifl::nn {

class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  std::size_t in_, out_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  tensor::Tensor cached_input_;
};

class Conv2d final : public Layer {
 public:
  Conv2d(tensor::ConvSpec spec, util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv2d"; }

  const tensor::ConvSpec& spec() const noexcept { return spec_; }

 private:
  tensor::ConvSpec spec_;
  Parameter weight_;  // (OC, C, K, K)
  Parameter bias_;    // (OC)
  tensor::Tensor cached_input_;
};

class ReLU final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  // 1 where the gradient passes (input > 0 or NaN), one byte per element
  // instead of a float copy of the input.
  std::vector<std::uint8_t> pass_;
};

class Tanh final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  tensor::Tensor cached_output_;
};

class Sigmoid final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  tensor::Tensor cached_output_;
};

/// Inverted dropout: at train time each activation is zeroed with
/// probability p and survivors are scaled by 1/(1-p); in eval mode it is
/// the identity. Deterministic given its Rng stream.
class Dropout final : public Layer {
 public:
  Dropout(double p, util::Rng rng);

  void set_training(bool training) noexcept { training_ = training; }
  bool training() const noexcept { return training_; }

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Dropout"; }

 private:
  double p_;
  util::Rng rng_;
  bool training_ = true;
  std::vector<float> mask_;
};

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window) : window_(window) {}

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  std::size_t window_;
  std::vector<std::uint32_t> argmax_;
  tensor::Shape cached_input_shape_;
};

/// (N,C,H,W) -> (N, C*H*W).
class Flatten final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  tensor::Shape cached_input_shape_;
};

/// (N,C,H,W) -> (N,C).
class GlobalAvgPool final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  tensor::Shape cached_input_shape_;
};

/// Batch normalisation over NCHW channels: train mode normalises with the
/// batch statistics and updates running estimates (EMA with `momentum`);
/// eval mode uses the running estimates. Learnable per-channel γ/β.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, double momentum = 0.1,
                       double epsilon = 1e-5);

  void set_training(bool training) noexcept { training_ = training; }
  bool training() const noexcept { return training_; }
  const tensor::Tensor& running_mean() const noexcept { return running_mean_; }
  const tensor::Tensor& running_var() const noexcept { return running_var_; }

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::string name() const override { return "BatchNorm2d"; }

 private:
  std::size_t channels_;
  double momentum_;
  double epsilon_;
  bool training_ = true;
  Parameter gamma_;  // scale, init 1
  Parameter beta_;   // shift, init 0
  tensor::Tensor running_mean_;
  tensor::Tensor running_var_;
  // Forward caches (train mode).
  tensor::Tensor cached_xhat_;
  std::vector<double> cached_inv_std_;
};

/// Kaiming-uniform fill used by Linear/Conv2d: U(-b, b), b = sqrt(6/fan_in).
void kaiming_uniform(tensor::Tensor& t, std::size_t fan_in, util::Rng& rng);

}  // namespace fifl::nn
