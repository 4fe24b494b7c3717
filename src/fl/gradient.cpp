#include "fl/gradient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"

namespace fifl::fl {

namespace kernels = tensor::kernels;

void Gradient::zero() noexcept {
  kernels::active().fill(values_.data(), 0.0f, values_.size());
}

void Gradient::scale(float alpha) noexcept {
  kernels::active().scale(values_.data(), alpha, values_.size());
}

void Gradient::axpy(float alpha, const Gradient& other) {
  if (other.size() != size()) {
    throw std::invalid_argument("Gradient::axpy: size mismatch");
  }
  kernels::active().axpy(values_.data(), alpha, other.values_.data(),
                         values_.size());
}

void Gradient::assign(std::span<const float> values) {
  values_.assign(values.begin(), values.end());
}

void Gradient::assign_zero(std::size_t size) {
  values_.resize(size);
  kernels::active().fill(values_.data(), 0.0f, values_.size());
}

double Gradient::squared_norm() const noexcept {
  return kernels::active().squared_norm(values_.data(), values_.size());
}

double Gradient::norm() const noexcept { return std::sqrt(squared_norm()); }

bool Gradient::finite() const noexcept {
  return !kernels::active().has_nonfinite(values_.data(), values_.size());
}

SlicePlan::SlicePlan(std::size_t gradient_size, std::size_t servers) {
  if (servers == 0) throw std::invalid_argument("SlicePlan: zero servers");
  if (gradient_size < servers) {
    throw std::invalid_argument("SlicePlan: more servers than gradient entries");
  }
  offsets_.resize(servers + 1);
  const std::size_t base = gradient_size / servers;
  const std::size_t extra = gradient_size % servers;
  offsets_[0] = 0;
  for (std::size_t j = 0; j < servers; ++j) {
    offsets_[j + 1] = offsets_[j] + base + (j < extra ? 1 : 0);
  }
}

std::span<const float> SlicePlan::slice(const Gradient& g, std::size_t j) const {
  if (g.size() != gradient_size()) {
    throw std::invalid_argument("SlicePlan::slice: gradient size mismatch");
  }
  return g.flat().subspan(offset(j), slice_size(j));
}

std::span<float> SlicePlan::slice(Gradient& g, std::size_t j) const {
  if (g.size() != gradient_size()) {
    throw std::invalid_argument("SlicePlan::slice: gradient size mismatch");
  }
  return g.flat().subspan(offset(j), slice_size(j));
}

void recombine_into(const SlicePlan& plan,
                    std::span<const std::span<const float>> slices,
                    Gradient& out) {
  if (slices.size() != plan.servers()) {
    throw std::invalid_argument("recombine: slice count mismatch");
  }
  out.assign_zero(plan.gradient_size());
  for (std::size_t j = 0; j < slices.size(); ++j) {
    if (slices[j].size() != plan.slice_size(j)) {
      throw std::invalid_argument("recombine: slice size mismatch");
    }
    const auto dst = plan.slice(out, j);
    std::copy(slices[j].begin(), slices[j].end(), dst.begin());
  }
}

Gradient recombine(const SlicePlan& plan,
                   std::span<const std::span<const float>> slices) {
  Gradient out;
  recombine_into(plan, slices, out);
  return out;
}

Gradient recombine(const SlicePlan& plan,
                   const std::vector<std::vector<float>>& slices) {
  std::vector<std::span<const float>> views(slices.begin(), slices.end());
  return recombine(plan, views);
}

}  // namespace fifl::fl
