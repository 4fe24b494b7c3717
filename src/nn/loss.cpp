#include "nn/loss.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace fifl::nn {

double SoftmaxCrossEntropy::forward(const tensor::Tensor& logits,
                                    std::span<const std::int32_t> labels) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("SoftmaxCrossEntropy: logits must be (N,C)");
  }
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  if (labels.size() != n) {
    throw std::invalid_argument("SoftmaxCrossEntropy: label count mismatch");
  }
  probs_ = tensor::Tensor({n, c});
  labels_.assign(labels.begin(), labels.end());
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    float maxv = -std::numeric_limits<float>::infinity();
    bool row_finite = true;
    for (std::size_t j = 0; j < c; ++j) {
      const float v = logits(i, j);
      if (!std::isfinite(v)) row_finite = false;
      maxv = std::max(maxv, v);
    }
    if (!row_finite || !std::isfinite(maxv)) {
      // Model diverged: propagate NaN loss, keep uniform probabilities so
      // the backward pass stays finite enough to keep simulating.
      total = std::numeric_limits<double>::quiet_NaN();
      for (std::size_t j = 0; j < c; ++j) {
        probs_(i, j) = 1.0f / static_cast<float>(c);
      }
      continue;
    }
    double denom = 0.0;
    // order: classes ascending per sample.
    for (std::size_t j = 0; j < c; ++j) {
      denom += std::exp(static_cast<double>(logits(i, j) - maxv));
    }
    const double log_denom = std::log(denom);
    for (std::size_t j = 0; j < c; ++j) {
      probs_(i, j) = static_cast<float>(
          std::exp(static_cast<double>(logits(i, j) - maxv) - log_denom));
    }
    const auto label = static_cast<std::size_t>(labels[i]);
    if (label >= c) {
      throw std::out_of_range("SoftmaxCrossEntropy: label out of range");
    }
    total -= static_cast<double>(logits(i, label) - maxv) - log_denom;
  }
  return total / static_cast<double>(n);
}

tensor::Tensor SoftmaxCrossEntropy::backward() const {
  if (probs_.empty()) {
    throw std::logic_error("SoftmaxCrossEntropy::backward before forward");
  }
  const std::size_t n = probs_.dim(0), c = probs_.dim(1);
  tensor::Tensor grad = probs_.clone();
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    grad(i, static_cast<std::size_t>(labels_[i])) -= 1.0f;
    for (std::size_t j = 0; j < c; ++j) grad(i, j) *= inv_n;
  }
  return grad;
}

double accuracy(const tensor::Tensor& logits,
                std::span<const std::int32_t> labels) {
  if (logits.rank() != 2 || logits.dim(0) != labels.size()) {
    throw std::invalid_argument("accuracy: shape mismatch");
  }
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < c; ++j) {
      if (logits(i, j) > logits(i, best)) best = j;
    }
    if (best == static_cast<std::size_t>(labels[i])) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace fifl::nn
