#include "nn/sequential.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace fifl::nn {

tensor::Tensor Sequential::forward(const tensor::Tensor& input) {
  if (layers_.empty()) return input.clone();
  tensor::Tensor x = layers_.front()->forward(input);
  for (std::size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->forward(x);
  return x;
}

tensor::Tensor Sequential::backward_from(const tensor::Tensor& grad_output,
                                         std::size_t first) {
  tensor::Tensor g = layers_.back()->backward(grad_output);
  for (std::size_t i = layers_.size() - 1; i-- > first;) g = layers_[i]->backward(g);
  return g;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_output) {
  if (layers_.empty()) return grad_output.clone();
  return backward_from(grad_output, 0);
}

void Sequential::backward_params(const tensor::Tensor& grad_output) {
  // Below the first layer with parameters only input gradients flow, and
  // nobody reads them: skip those layers and that layer's input gradient.
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->parameters().empty()) ++first;
  if (first == layers_.size()) return;
  if (first + 1 == layers_.size()) {
    layers_[first]->backward_params(grad_output);
    return;
  }
  layers_[first]->backward_params(backward_from(grad_output, first + 1));
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : parameters()) n += p->value.numel();
  return n;
}

std::vector<float> Sequential::flatten_parameters() {
  std::vector<float> flat(parameter_count());
  flatten_parameters_into(flat);
  return flat;
}

void Sequential::flatten_parameters_into(std::span<float> out) {
  std::size_t offset = 0;
  for (Parameter* p : parameters()) {
    const auto view = p->value.flat();
    if (offset + view.size() > out.size()) {
      throw std::invalid_argument("flatten_parameters_into: buffer too short");
    }
    std::copy(view.begin(), view.end(), out.begin() + offset);
    offset += view.size();
  }
  if (offset != out.size()) {
    throw std::invalid_argument("flatten_parameters_into: buffer too long");
  }
}

std::vector<float> Sequential::flatten_gradients() {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (Parameter* p : parameters()) {
    const auto view = p->grad.flat();
    flat.insert(flat.end(), view.begin(), view.end());
  }
  return flat;
}

void Sequential::load_parameters(std::span<const float> flat) {
  std::size_t offset = 0;
  for (Parameter* p : parameters()) {
    const std::size_t n = p->value.numel();
    if (offset + n > flat.size()) {
      throw std::invalid_argument("load_parameters: flat vector too short");
    }
    float* dst = p->value.data();
    for (std::size_t i = 0; i < n; ++i) dst[i] = flat[offset + i];
    offset += n;
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("load_parameters: flat vector too long");
  }
}

void Sequential::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

ResidualBlock::ResidualBlock(std::size_t channels, util::Rng& rng)
    : conv1_({.in_channels = channels,
              .out_channels = channels,
              .kernel = 3,
              .stride = 1,
              .padding = 1},
             rng),
      conv2_({.in_channels = channels,
              .out_channels = channels,
              .kernel = 3,
              .stride = 1,
              .padding = 1},
             rng) {}

tensor::Tensor ResidualBlock::forward(const tensor::Tensor& input) {
  tensor::Tensor h = conv1_.forward(input);
  h = relu1_.forward(h);
  h = conv2_.forward(h);
  tensor::add_inplace(h, input);
  return relu2_.forward(h);
}

tensor::Tensor ResidualBlock::backward(const tensor::Tensor& grad_output) {
  const tensor::Tensor g = relu2_.backward(grad_output);
  // Branch gradient through conv2 -> relu1 -> conv1; skip adds g directly.
  tensor::Tensor branch = conv2_.backward(g);
  branch = relu1_.backward(branch);
  branch = conv1_.backward(branch);
  tensor::add_inplace(branch, g);
  return branch;
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> params;
  for (Parameter* p : conv1_.parameters()) params.push_back(p);
  for (Parameter* p : conv2_.parameters()) params.push_back(p);
  return params;
}

}  // namespace fifl::nn
