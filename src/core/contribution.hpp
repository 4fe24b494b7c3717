// Contribution module (Sec. 4.3): a worker's utility this round is
// measured by how close its gradient is to the aggregated global gradient,
//   b_i = Dis(G̃, G_i) = Σ_j ‖g̃^j − g_i^j‖²  (Eq. 13, slice-additive),
//   C_i = 1 − b_i / b_h                      (Eq. 14),
// where the anchor b_h is either Dis(G̃, 0) = ‖G̃‖² (a zero gradient has
// zero utility) or the distance of a designated reference worker — the
// paper's free-rider barrier: anyone no better than the reference earns
// nothing or is punished.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "fl/topology.hpp"

namespace fifl::core {

enum class Anchor {
  kZeroGradient,     // b_h = ‖G̃‖²
  kReferenceWorker,  // b_h = Dis(G̃, G_ref)
};

struct ContributionConfig {
  Anchor anchor = Anchor::kZeroGradient;
  /// Worker index used when anchor == kReferenceWorker.
  std::size_t reference_worker = 0;
};

struct ContributionResult {
  std::vector<double> distances;      // b_i; NaN for absent uploads
  double threshold = 0.0;             // b_h
  std::vector<double> contributions;  // C_i; 0 for absent uploads
};

class ContributionModule {
 public:
  explicit ContributionModule(ContributionConfig config) : config_(config) {}

  const ContributionConfig& config() const noexcept { return config_; }

  /// Computes b_i and C_i for every upload against the global gradient.
  /// Uploads that did not arrive get distance NaN and contribution 0.
  /// Each b_i is one task on the global pool; an arrived upload of the
  /// wrong width throws std::invalid_argument before any is computed.
  ContributionResult run(std::span<const fl::Upload> uploads,
                         const fl::Gradient& global_gradient) const;

  /// Slice-wise distance Σ_j Dis(g̃^j, g_i^j); equals the full squared
  /// distance because slices partition the vector — exposed for tests.
  static double sliced_distance(const fl::Gradient& a, const fl::Gradient& b,
                                const fl::SlicePlan& plan);

 private:
  ContributionConfig config_;
};

}  // namespace fifl::core
