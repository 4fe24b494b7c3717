#include "core/contribution.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/parallel_for.hpp"

namespace fifl::core {

ContributionResult ContributionModule::run(
    std::span<const fl::Upload> uploads,
    const fl::Gradient& global_gradient) const {
  ContributionResult result;
  const std::size_t n = uploads.size();
  const std::size_t dim = global_gradient.size();
  for (const fl::Upload& upload : uploads) {
    if (upload.arrived && upload.gradient.size() != dim) {
      throw std::invalid_argument("ContributionModule: gradient size mismatch");
    }
  }
  result.distances.assign(n, std::numeric_limits<double>::quiet_NaN());
  result.contributions.assign(n, 0.0);

  // Every b_i is one squared-distance pass against the same G̃ through the
  // dispatched kernel table (double accumulation, fixed 16-lane tree —
  // bit-identical across backends by construction), computed by one pool
  // task that is the only writer of distances[i].
  const tensor::kernels::KernelTable& kt = tensor::kernels::active();
  const float* global_flat = global_gradient.flat().data();
  const auto measure_worker = [&](std::size_t i) {
    if (!uploads[i].arrived) return;
    double d = kt.squared_distance(uploads[i].gradient.flat().data(),
                                   global_flat, dim);
    if (!std::isfinite(d)) {
      // A non-finite gradient is infinitely far from the global one.
      d = std::numeric_limits<double>::infinity();
    }
    result.distances[i] = d;
  };
  util::parallel_for(0, n, measure_worker, /*grain=*/1);

  if (config_.anchor == Anchor::kZeroGradient) {
    result.threshold = kt.squared_norm(global_flat, dim);  // Dis(G̃, 0)
  } else {
    if (config_.reference_worker >= n) {
      throw std::invalid_argument("ContributionModule: reference worker out of range");
    }
    const double ref = result.distances[config_.reference_worker];
    if (!std::isfinite(ref)) {
      throw std::runtime_error(
          "ContributionModule: reference worker's upload is unusable");
    }
    result.threshold = ref;
  }

  if (result.threshold <= 0.0) {
    // Degenerate round (zero global gradient): nobody contributes.
    for (auto& c : result.contributions) c = 0.0;
    return result;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!uploads[i].arrived) continue;
    if (std::isinf(result.distances[i])) {
      result.contributions[i] = -std::numeric_limits<double>::infinity();
      continue;
    }
    result.contributions[i] = 1.0 - result.distances[i] / result.threshold;
  }
  return result;
}

double ContributionModule::sliced_distance(const fl::Gradient& a,
                                           const fl::Gradient& b,
                                           const fl::SlicePlan& plan) {
  if (a.size() != plan.gradient_size() || b.size() != plan.gradient_size()) {
    throw std::invalid_argument("sliced_distance: size mismatch");
  }
  double total = 0.0;
  // order: server slice index ascending (identical on every replica)
  for (std::size_t j = 0; j < plan.servers(); ++j) {
    const auto sa = plan.slice(a, j);
    const auto sb = plan.slice(b, j);
    total += tensor::squared_distance(sa, sb);
  }
  return total;
}

}  // namespace fifl::core
