// 2-D convolution and pooling primitives (NCHW layout). Convolution runs
// one image at a time: the forward reads each output's taps straight from
// a zero-bordered copy of the image (kernels::conv_forward_image), and the
// backward unfolds that copy into patch rows for the kernel row functions,
// so unfolded columns never exist for the whole batch. Every output
// element keeps the floating-point operation order of the whole-batch
// composition im2col → matmul_nt / matmul_tn / matmul → col2im
// (DESIGN.md "Training path"); tests/tensor/test_conv.cpp pins that
// bitwise. nn::Conv2d and nn::MaxPool2d are thin wrappers over these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace fifl::tensor {

struct ConvSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;

  std::size_t out_dim(std::size_t in_dim) const {
    return (in_dim + 2 * padding - kernel) / stride + 1;
  }
};

/// Unfold input (N,C,H,W) into columns (N*OH*OW, C*K*K). The reference
/// definition the conv tests compose; the conv functions unfold per image.
Tensor im2col(const Tensor& input, const ConvSpec& spec);
/// Fold columns (N*OH*OW, C*K*K) back into (N,C,H,W), accumulating overlaps
/// with rows ascending. Reference definition, like im2col().
Tensor col2im(const Tensor& cols, const ConvSpec& spec, std::size_t n,
              std::size_t h, std::size_t w);

/// output(N,OC,OH,OW) = conv(input(N,C,H,W), weight(OC,C,K,K)) + bias(OC).
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ConvSpec& spec);

struct Conv2dGrads {
  Tensor grad_input;   // (N,C,H,W); empty when not requested
  Tensor grad_weight;  // (OC,C,K,K)
  Tensor grad_bias;    // (OC)
};

/// Gradients of conv2d_forward for `grad_output` (N,OC,OH,OW). With
/// `want_input_grad` false the input gradient is skipped (a model's first
/// layer); the weight and bias gradients are bit-identical either way.
/// Throws std::invalid_argument when input, weight or grad_output do not
/// match `spec`.
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const ConvSpec& spec,
                            bool want_input_grad = true);

/// Max pooling with square window `window` and equal stride.
/// `argmax_out` stores the flat input index chosen per output element
/// (needed by the backward pass).
Tensor maxpool2d_forward(const Tensor& input, std::size_t window,
                         std::vector<std::uint32_t>& argmax_out);
/// Routes each output gradient to its argmax input element. Throws
/// std::invalid_argument when `argmax` does not match `grad_output` or
/// indexes outside `input_shape`.
Tensor maxpool2d_backward(const Tensor& grad_output,
                          const std::vector<std::uint32_t>& argmax,
                          const Shape& input_shape);

/// Global average pooling: (N,C,H,W) -> (N,C).
Tensor global_avgpool_forward(const Tensor& input);
Tensor global_avgpool_backward(const Tensor& grad_output,
                               const Shape& input_shape);

}  // namespace fifl::tensor
