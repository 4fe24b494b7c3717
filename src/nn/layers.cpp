#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace fifl::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, double momentum, double epsilon)
    : channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_("gamma", tensor::Tensor({channels}, 1.0f)),
      beta_("beta", tensor::Tensor({channels}, 0.0f)),
      running_mean_({channels}, 0.0f),
      running_var_({channels}, 1.0f) {
  if (channels == 0) throw std::invalid_argument("BatchNorm2d: zero channels");
  if (momentum <= 0.0 || momentum > 1.0) {
    throw std::invalid_argument("BatchNorm2d: momentum outside (0,1]");
  }
  if (epsilon <= 0.0) throw std::invalid_argument("BatchNorm2d: epsilon <= 0");
}

tensor::Tensor BatchNorm2d::forward(const tensor::Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: expected (N," +
                                std::to_string(channels_) + ",H,W), got " +
                                input.shape_string());
  }
  const std::size_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const auto per_channel = static_cast<double>(n * h * w);
  tensor::Tensor out = input.clone();
  cached_xhat_ = tensor::Tensor(input.shape());
  cached_inv_std_.assign(channels_, 0.0);

  for (std::size_t c = 0; c < channels_; ++c) {
    double mean, var;
    if (training_) {
      double sum = 0.0, sum2 = 0.0;
      // order: images, rows, columns ascending per channel.
      for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t y = 0; y < h; ++y) {
          for (std::size_t x = 0; x < w; ++x) {
            const auto v = static_cast<double>(input(img, c, y, x));
            sum += v;
            sum2 += v * v;
          }
        }
      }
      mean = sum / per_channel;
      var = sum2 / per_channel - mean * mean;
      running_mean_[c] = static_cast<float>(
          (1.0 - momentum_) * static_cast<double>(running_mean_[c]) +
          momentum_ * mean);
      running_var_[c] = static_cast<float>(
          (1.0 - momentum_) * static_cast<double>(running_var_[c]) +
          momentum_ * var);
    } else {
      mean = static_cast<double>(running_mean_[c]);
      var = static_cast<double>(running_var_[c]);
    }
    const double inv_std = 1.0 / std::sqrt(var + epsilon_);
    cached_inv_std_[c] = inv_std;
    const float g = gamma_.value[c];
    const float b = beta_.value[c];
    for (std::size_t img = 0; img < n; ++img) {
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          const auto xhat = static_cast<float>(
              (static_cast<double>(input(img, c, y, x)) - mean) * inv_std);
          cached_xhat_(img, c, y, x) = xhat;
          out(img, c, y, x) = g * xhat + b;
        }
      }
    }
  }
  return out;
}

tensor::Tensor BatchNorm2d::backward(const tensor::Tensor& grad_output) {
  if (cached_xhat_.shape() != grad_output.shape()) {
    throw std::logic_error("BatchNorm2d: backward without matching forward");
  }
  const std::size_t n = grad_output.dim(0), h = grad_output.dim(2),
                    w = grad_output.dim(3);
  const auto per_channel = static_cast<double>(n * h * w);
  tensor::Tensor grad_input(grad_output.shape());

  for (std::size_t c = 0; c < channels_; ++c) {
    // dγ = Σ dy·x̂; dβ = Σ dy.
    double dgamma = 0.0, dbeta = 0.0, dot_xhat = 0.0;
    // order: images, rows, columns ascending per channel.
    for (std::size_t img = 0; img < n; ++img) {
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          const auto dy = static_cast<double>(grad_output(img, c, y, x));
          const auto xhat = static_cast<double>(cached_xhat_(img, c, y, x));
          dgamma += dy * xhat;
          dbeta += dy;
          dot_xhat += dy * xhat;
        }
      }
    }
    gamma_.grad[c] += static_cast<float>(dgamma);
    beta_.grad[c] += static_cast<float>(dbeta);

    if (!training_) {
      // Eval mode: statistics are constants, dx = dy·γ·inv_std.
      const double scale = static_cast<double>(gamma_.value[c]) * cached_inv_std_[c];
      for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t y = 0; y < h; ++y) {
          for (std::size_t x = 0; x < w; ++x) {
            grad_input(img, c, y, x) = static_cast<float>(
                static_cast<double>(grad_output(img, c, y, x)) * scale);
          }
        }
      }
      continue;
    }
    // Train mode: dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂)).
    const double scale =
        static_cast<double>(gamma_.value[c]) * cached_inv_std_[c] / per_channel;
    for (std::size_t img = 0; img < n; ++img) {
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          const auto dy = static_cast<double>(grad_output(img, c, y, x));
          const auto xhat = static_cast<double>(cached_xhat_(img, c, y, x));
          grad_input(img, c, y, x) = static_cast<float>(
              scale * (per_channel * dy - dbeta - xhat * dot_xhat));
        }
      }
    }
  }
  return grad_input;
}

void kaiming_uniform(tensor::Tensor& t, std::size_t fan_in, util::Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(fan_in == 0 ? 1 : fan_in));
  for (auto& v : t.flat()) {
    v = static_cast<float>(rng.uniform(-bound, bound));
  }
}

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("weight", tensor::Tensor({out_features, in_features})),
      bias_("bias", tensor::Tensor({out_features})) {
  kaiming_uniform(weight_.value, in_, rng);
  kaiming_uniform(bias_.value, in_, rng);
}

tensor::Tensor Linear::forward(const tensor::Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Linear: expected (N," + std::to_string(in_) +
                                "), got " + input.shape_string());
  }
  cached_input_ = input.clone();
  tensor::Tensor out = tensor::matmul_nt(input, weight_.value);  // (N, out)
  const std::size_t n = out.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_; ++j) out(i, j) += bias_.value[j];
  }
  return out;
}

tensor::Tensor Linear::backward(const tensor::Tensor& grad_output) {
  backward_params(grad_output);
  // dX = dY W.
  return tensor::matmul(grad_output, weight_.value);
}

void Linear::backward_params(const tensor::Tensor& grad_output) {
  // dW += dY^T X; db += column sums of dY.
  tensor::Tensor gw = tensor::matmul_tn(grad_output, cached_input_);
  tensor::add_inplace(weight_.grad, gw);
  const std::size_t n = grad_output.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    // order: db(j) sums batch rows ascending.
    for (std::size_t j = 0; j < out_; ++j) bias_.grad[j] += grad_output(i, j);
  }
}

Conv2d::Conv2d(tensor::ConvSpec spec, util::Rng& rng)
    : spec_(spec),
      weight_("weight", tensor::Tensor({spec.out_channels, spec.in_channels,
                                        spec.kernel, spec.kernel})),
      bias_("bias", tensor::Tensor({spec.out_channels})) {
  const std::size_t fan_in = spec.in_channels * spec.kernel * spec.kernel;
  kaiming_uniform(weight_.value, fan_in, rng);
  kaiming_uniform(bias_.value, fan_in, rng);
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& input) {
  cached_input_ = input.clone();
  return tensor::conv2d_forward(input, weight_.value, bias_.value, spec_);
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_output) {
  auto grads =
      tensor::conv2d_backward(cached_input_, weight_.value, grad_output, spec_);
  tensor::add_inplace(weight_.grad, grads.grad_weight);
  tensor::add_inplace(bias_.grad, grads.grad_bias);
  return std::move(grads.grad_input);
}

void Conv2d::backward_params(const tensor::Tensor& grad_output) {
  auto grads = tensor::conv2d_backward(cached_input_, weight_.value, grad_output,
                                       spec_, /*want_input_grad=*/false);
  tensor::add_inplace(weight_.grad, grads.grad_weight);
  tensor::add_inplace(bias_.grad, grads.grad_bias);
}

tensor::Tensor ReLU::forward(const tensor::Tensor& input) {
  tensor::Tensor out(input.shape());
  pass_.resize(input.numel());
  // NaN and -0 pass unchanged; the mask passes NaN but not ±0.
  tensor::kernels::active().relu_forward(input.data(), out.data(),
                                         pass_.data(), input.numel());
  return out;
}

tensor::Tensor ReLU::backward(const tensor::Tensor& grad_output) {
  if (grad_output.numel() != pass_.size()) {
    throw std::logic_error("ReLU: backward without matching forward");
  }
  tensor::Tensor grad(grad_output.shape());
  tensor::kernels::active().relu_backward(grad_output.data(), pass_.data(),
                                          grad.data(), pass_.size());
  return grad;
}

tensor::Tensor Tanh::forward(const tensor::Tensor& input) {
  tensor::Tensor out = input.clone();
  for (auto& v : out.flat()) v = std::tanh(v);
  cached_output_ = out.clone();
  return out;
}

tensor::Tensor Tanh::backward(const tensor::Tensor& grad_output) {
  tensor::Tensor grad = grad_output.clone();
  const float* y = cached_output_.data();
  float* g = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    g[i] *= 1.0f - y[i] * y[i];
  }
  return grad;
}

tensor::Tensor Sigmoid::forward(const tensor::Tensor& input) {
  tensor::Tensor out = input.clone();
  for (auto& v : out.flat()) {
    v = 1.0f / (1.0f + std::exp(-v));
  }
  cached_output_ = out.clone();
  return out;
}

tensor::Tensor Sigmoid::backward(const tensor::Tensor& grad_output) {
  tensor::Tensor grad = grad_output.clone();
  const float* y = cached_output_.data();
  float* g = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    g[i] *= y[i] * (1.0f - y[i]);
  }
  return grad;
}

Dropout::Dropout(double p, util::Rng rng) : p_(p), rng_(rng) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

tensor::Tensor Dropout::forward(const tensor::Tensor& input) {
  if (!training_ || p_ == 0.0) {
    mask_.assign(input.numel(), 1.0f);
    return input.clone();
  }
  tensor::Tensor out = input.clone();
  mask_.resize(input.numel());
  const auto scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < out.numel(); ++i) {
    mask_[i] = rng_.bernoulli(p_) ? 0.0f : scale;
    out[i] *= mask_[i];
  }
  return out;
}

tensor::Tensor Dropout::backward(const tensor::Tensor& grad_output) {
  if (grad_output.numel() != mask_.size()) {
    throw std::logic_error("Dropout: backward without matching forward");
  }
  tensor::Tensor grad = grad_output.clone();
  for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= mask_[i];
  return grad;
}

tensor::Tensor MaxPool2d::forward(const tensor::Tensor& input) {
  cached_input_shape_ = input.shape();
  return tensor::maxpool2d_forward(input, window_, argmax_);
}

tensor::Tensor MaxPool2d::backward(const tensor::Tensor& grad_output) {
  return tensor::maxpool2d_backward(grad_output, argmax_, cached_input_shape_);
}

tensor::Tensor Flatten::forward(const tensor::Tensor& input) {
  cached_input_shape_ = input.shape();
  tensor::Tensor out = input.clone();
  const std::size_t n = input.dim(0);
  out.reshape({n, input.numel() / n});
  return out;
}

tensor::Tensor Flatten::backward(const tensor::Tensor& grad_output) {
  tensor::Tensor grad = grad_output.clone();
  grad.reshape(cached_input_shape_);
  return grad;
}

tensor::Tensor GlobalAvgPool::forward(const tensor::Tensor& input) {
  cached_input_shape_ = input.shape();
  return tensor::global_avgpool_forward(input);
}

tensor::Tensor GlobalAvgPool::backward(const tensor::Tensor& grad_output) {
  return tensor::global_avgpool_backward(grad_output, cached_input_shape_);
}

}  // namespace fifl::nn
