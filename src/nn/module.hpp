// Layer abstraction for the hand-written backprop engine.
//
// The engine is deliberately a "tape-free" design: each Layer caches
// whatever it needs from its own forward() call and consumes it in
// backward(). That is enough for the strictly feed-forward (plus residual
// skip) models the paper evaluates, and keeps the substrate small and
// auditable. Parameters pair a value tensor with a same-shaped gradient
// accumulator; the FL layer flattens them in to / out of wire vectors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fifl::nn {

/// A trainable tensor and its gradient accumulator.
struct Parameter {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;

  Parameter(std::string n, tensor::Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() noexcept { grad.zero(); }
};

/// Base class for all layers. Layers are stateful: backward() must be
/// called with the gradient matching the most recent forward().
class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute output activations; caches inputs needed for backward().
  virtual tensor::Tensor forward(const tensor::Tensor& input) = 0;
  /// Propagate gradients; accumulates into this layer's Parameter::grad.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;
  /// backward() for a caller that drops the input gradient: accumulates
  /// the same parameter gradients bit for bit, and layers may skip the
  /// input gradient. The default runs backward() and discards it.
  virtual void backward_params(const tensor::Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Non-owning views of this layer's trainable parameters (may be empty).
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace fifl::nn
