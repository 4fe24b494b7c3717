// Attack detection module (Sec. 4.1).
//
// The exact detection score is the loss difference S(θ, G_i) = L_t(θ) −
// L_t(θ − G_i) (Eq. 5, after Zeno). FIFL's contribution is the Taylor
// first-order approximation S_i ≈ ⟨G, G_i⟩ against a benchmark gradient G
// assembled from the servers' own local gradients — no inference needed.
// In the polycentric topology each server j scores its slice, S_i^j =
// ⟨g̃^j, g_i^j⟩, and the global score is the sum over servers (Eq. 6).
//
// Raw inner products scale with ‖G‖·‖G_i‖, which shrinks as training
// converges; a fixed threshold S_y is then meaningless across rounds. We
// therefore classify on a normalised score (cosine by default, so S_y is
// in [-1, 1] as in the paper's Fig. 9 sweep) while still exposing the raw
// per-server scores that go into the audit ledger.
#pragma once

#include <span>
#include <vector>

#include "fl/topology.hpp"

namespace fifl::core {

enum class ScoreKind {
  kRaw,        // Σ_j ⟨g̃^j, g_i^j⟩, unnormalised (Eq. 6 literally)
  kCosine,     // raw / (‖G̃‖·‖G_i‖)  — default; S_y in [-1, 1]
  kProjection  // raw / ‖G̃‖²          — length of G_i along the benchmark
};

struct DetectionConfig {
  double threshold = 0.0;  // S_y: score >= S_y => honest (r_i = 1)
  ScoreKind score = ScoreKind::kCosine;
};

struct DetectionResult {
  std::vector<double> scores;    // S_i (normalised per config), NaN if absent
  std::vector<int> accepted;     // r_i ∈ {0,1}; 0 for absent uploads too
  std::vector<int> uncertain;    // 1 iff upload did not arrive
  /// Raw per-server scores S_i^j: server_scores[j][i] = ⟨g̃^j, g_i^j⟩.
  std::vector<std::vector<double>> server_scores;
};

class DetectionModule {
 public:
  explicit DetectionModule(DetectionConfig config) : config_(config) {}

  const DetectionConfig& config() const noexcept { return config_; }
  void set_threshold(double s_y) noexcept { config_.threshold = s_y; }

  /// Scores every upload against the benchmark slices (one per server,
  /// sizes given by `plan`). uploads[i] drives scores[i]. All inner
  /// products go through the dispatched SIMD kernels (tensor::kernels);
  /// the per-slice reduction order is the kernels' fixed 8-lane tree, so
  /// every replica — whatever its ISA — computes identical score bytes.
  /// Workers are scored on the global pool, one task per worker, so the
  /// bytes do not depend on the pool size either. Throws
  /// std::invalid_argument on any benchmark or arrived-upload width
  /// mismatch before scoring anyone.
  DetectionResult run(std::span<const fl::Upload> uploads,
                      const fl::SlicePlan& plan,
                      std::span<const std::span<const float>> benchmark) const;
  DetectionResult run(std::span<const fl::Upload> uploads,
                      const fl::SlicePlan& plan,
                      const std::vector<std::vector<float>>& benchmark) const;

  /// Per-round engine path: benchmarks are the cluster's own members,
  /// read through zero-copy views into their upload gradients (no slice
  /// materialisation at all — see ServerCluster::benchmark_views).
  DetectionResult run(std::span<const fl::Upload> uploads,
                      const fl::ServerCluster& cluster) const;

  /// The exact (expensive) score of Eq. 5 for comparison/ablation:
  /// evaluate `loss_at(params)` at θ and θ − G_i.
  template <typename LossFn>
  static double exact_score(const std::vector<float>& params,
                            const fl::Gradient& gradient, LossFn&& loss_at) {
    std::vector<float> shifted = params;
    for (std::size_t k = 0; k < shifted.size(); ++k) {
      shifted[k] -= gradient[k];
    }
    return loss_at(params) - loss_at(shifted);
  }

 private:
  DetectionConfig config_;
};

/// Detection-quality metrics against ground-truth attack labels.
struct DetectionMetrics {
  double accuracy = 0.0;        // overall fraction correct
  double true_positive = 0.0;   // honest accepted / honest    (paper's TP)
  double true_negative = 0.0;   // attacker rejected / attacker (paper's TN)
  std::size_t honest_total = 0;
  std::size_t attacker_total = 0;
};

DetectionMetrics evaluate_detection(const DetectionResult& result,
                                    std::span<const fl::Upload> uploads);

}  // namespace fifl::core
