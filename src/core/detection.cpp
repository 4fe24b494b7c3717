#include "core/detection.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/parallel_for.hpp"

namespace fifl::core {

DetectionResult DetectionModule::run(
    std::span<const fl::Upload> uploads, const fl::SlicePlan& plan,
    std::span<const std::span<const float>> benchmark) const {
  if (benchmark.size() != plan.servers()) {
    throw std::invalid_argument("DetectionModule: benchmark slice count mismatch");
  }
  const std::size_t n = uploads.size();
  const std::size_t m = plan.servers();
  for (const fl::Upload& upload : uploads) {
    if (upload.arrived && upload.gradient.size() != plan.gradient_size()) {
      throw std::invalid_argument("DetectionModule: upload gradient size mismatch");
    }
  }
  const tensor::kernels::KernelTable& kt = tensor::kernels::active();

  DetectionResult result;
  result.scores.assign(n, std::numeric_limits<double>::quiet_NaN());
  result.accepted.assign(n, 0);
  result.uncertain.assign(n, 0);
  result.server_scores.assign(m, std::vector<double>(n, 0.0));

  // Benchmark norm over all slices (for normalisation).
  double bench_norm2 = 0.0;
  // order: slice j ascending; within a slice the kernel's fixed 16-lane
  // tree (bit-identical on every ISA — see tensor/kernels/kernels.hpp)
  for (std::size_t j = 0; j < m; ++j) {
    if (benchmark[j].size() != plan.slice_size(j)) {
      throw std::invalid_argument("DetectionModule: benchmark slice size mismatch");
    }
    bench_norm2 += kt.squared_norm(benchmark[j].data(), benchmark[j].size());
  }

  // Worker i is scored by one pool task, the only writer of its entries in
  // `result`, so the bytes do not depend on the pool size.
  const auto score_worker = [&](std::size_t i) {
    if (!uploads[i].arrived) {
      result.uncertain[i] = 1;
      return;
    }
    double raw = 0.0;
    bool finite = true;
    // order: server slice j ascending; within a slice the kernel dot's
    // fixed 16-lane tree (Eq. 6: S_i = Σ_j ⟨g̃^j, g_i^j⟩)
    for (std::size_t j = 0; j < m; ++j) {
      const auto slice = plan.slice(uploads[i].gradient, j);
      const double sj = kt.dot(benchmark[j].data(), slice.data(), slice.size());
      result.server_scores[j][i] = sj;
      raw += sj;
      if (!std::isfinite(sj)) finite = false;
    }
    double score = raw;
    if (config_.score == ScoreKind::kCosine) {
      const double norm_i = uploads[i].gradient.norm();
      const double denom = std::sqrt(bench_norm2) * norm_i;
      score = (denom > 0.0 && std::isfinite(denom)) ? raw / denom : 0.0;
    } else if (config_.score == ScoreKind::kProjection) {
      score = bench_norm2 > 0.0 ? raw / bench_norm2 : 0.0;
    }
    if (!finite || !std::isfinite(score)) {
      // A non-finite gradient is by definition harmful: reject outright.
      result.scores[i] = -std::numeric_limits<double>::infinity();
      result.accepted[i] = 0;
      return;
    }
    result.scores[i] = score;
    result.accepted[i] = score >= config_.threshold ? 1 : 0;
  };
  util::parallel_for(0, n, score_worker, /*grain=*/1);
  return result;
}

DetectionResult DetectionModule::run(
    std::span<const fl::Upload> uploads, const fl::SlicePlan& plan,
    const std::vector<std::vector<float>>& benchmark) const {
  const std::vector<std::span<const float>> views(benchmark.begin(),
                                                  benchmark.end());
  return run(uploads, plan, views);
}

DetectionResult DetectionModule::run(std::span<const fl::Upload> uploads,
                                     const fl::ServerCluster& cluster) const {
  // Zero-copy: the benchmark slices are views into the server members' own
  // upload gradients, read-only for the duration of this call. The pre-
  // kernel-layer path materialised std::vector<std::vector<float>> copies
  // of every slice here, every round.
  const std::vector<std::span<const float>> benchmark =
      cluster.benchmark_views(uploads);
  return run(uploads, cluster.plan(), benchmark);
}

DetectionMetrics evaluate_detection(const DetectionResult& result,
                                    std::span<const fl::Upload> uploads) {
  if (result.accepted.size() != uploads.size()) {
    throw std::invalid_argument("evaluate_detection: size mismatch");
  }
  DetectionMetrics metrics;
  std::size_t correct = 0, considered = 0;
  std::size_t honest_accepted = 0, attacker_rejected = 0;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    if (result.uncertain[i]) continue;
    ++considered;
    const bool attacker = uploads[i].ground_truth_attack;
    if (attacker) {
      ++metrics.attacker_total;
      if (!result.accepted[i]) {
        ++attacker_rejected;
        ++correct;
      }
    } else {
      ++metrics.honest_total;
      if (result.accepted[i]) {
        ++honest_accepted;
        ++correct;
      }
    }
  }
  metrics.accuracy =
      considered ? static_cast<double>(correct) / static_cast<double>(considered) : 0.0;
  metrics.true_positive =
      metrics.honest_total
          ? static_cast<double>(honest_accepted) / static_cast<double>(metrics.honest_total)
          : 0.0;
  metrics.true_negative =
      metrics.attacker_total
          ? static_cast<double>(attacker_rejected) /
                static_cast<double>(metrics.attacker_total)
          : 0.0;
  return metrics;
}

}  // namespace fifl::core
