#include "core/defenses.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "fl/simulator.hpp"
#include "fl/topology.hpp"
#include "tensor/ops.hpp"
#include "util/parallel_for.hpp"

namespace fifl::core {

namespace {
std::vector<const fl::Upload*> arrived_uploads(
    std::span<const fl::Upload> uploads) {
  std::vector<const fl::Upload*> out;
  for (const auto& up : uploads) {
    if (up.arrived) out.push_back(&up);
  }
  if (out.empty()) {
    throw std::invalid_argument("RobustAggregator: no arrived uploads");
  }
  const std::size_t size = out.front()->gradient.size();
  for (const fl::Upload* up : out) {
    if (up->gradient.size() != size) {
      throw std::invalid_argument("RobustAggregator: gradient size mismatch");
    }
  }
  return out;
}
}  // namespace

fl::Gradient FedAvgAggregator::aggregate(
    std::span<const fl::Upload> uploads) const {
  const auto arrived = arrived_uploads(uploads);
  if (std::none_of(arrived.begin(), arrived.end(),
                   [](const fl::Upload* up) { return up->samples > 0; })) {
    throw std::invalid_argument("FedAvg: zero total sample weight");
  }
  const std::vector<int> accept_all(uploads.size(), 1);
  return fl::aggregate(uploads, accept_all, arrived.front()->gradient.size());
}

KrumAggregator::KrumAggregator(std::size_t f, std::size_t m) : f_(f), m_(m) {
  if (m == 0) throw std::invalid_argument("Krum: m must be >= 1");
}

std::string KrumAggregator::name() const {
  return m_ == 1 ? "Krum(f=" + std::to_string(f_) + ")"
                 : "MultiKrum(f=" + std::to_string(f_) + ",m=" +
                       std::to_string(m_) + ")";
}

std::vector<double> KrumAggregator::scores(
    std::span<const fl::Upload> uploads) const {
  const auto arrived = arrived_uploads(uploads);
  const std::size_t n = arrived.size();
  if (n < f_ + 3) {
    throw std::invalid_argument("Krum: needs n >= f + 3 arrived uploads");
  }
  // Pairwise squared distances (parallel over the upper triangle's rows).
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  util::parallel_for(
      0, n,
      [&](std::size_t i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          const double d = tensor::squared_distance(
              arrived[i]->gradient.flat(), arrived[j]->gradient.flat());
          dist[i][j] = d;
        }
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) dist[i][j] = dist[j][i];
  }

  const std::size_t keep = n - f_ - 2;
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row;
    row.reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row.push_back(dist[i][j]);
    }
    std::nth_element(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     row.end());
    out[i] = std::accumulate(row.begin(),
                             row.begin() + static_cast<std::ptrdiff_t>(keep), 0.0);
  }
  return out;
}

fl::Gradient KrumAggregator::aggregate(
    std::span<const fl::Upload> uploads) const {
  const auto arrived = arrived_uploads(uploads);
  const auto krum_scores = scores(uploads);
  const std::size_t n = arrived.size();
  const std::size_t m = std::min(m_, n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return krum_scores[a] < krum_scores[b];
  });
  fl::Gradient out(arrived.front()->gradient.size());
  for (std::size_t k = 0; k < m; ++k) {
    out.axpy(1.0f / static_cast<float>(m), arrived[order[k]]->gradient);
  }
  return out;
}

fl::Gradient MedianAggregator::aggregate(
    std::span<const fl::Upload> uploads) const {
  const auto arrived = arrived_uploads(uploads);
  const std::size_t n = arrived.size();
  const std::size_t dims = arrived.front()->gradient.size();
  fl::Gradient out(dims);
  util::parallel_for(
      0, dims,
      [&](std::size_t d) {
        std::vector<float> column(n);
        for (std::size_t i = 0; i < n; ++i) {
          column[i] = arrived[i]->gradient[d];
        }
        const std::size_t mid = n / 2;
        std::nth_element(column.begin(),
                         column.begin() + static_cast<std::ptrdiff_t>(mid),
                         column.end());
        float value = column[mid];
        if (n % 2 == 0) {
          const float lo = *std::max_element(
              column.begin(), column.begin() + static_cast<std::ptrdiff_t>(mid));
          value = 0.5f * (lo + value);
        }
        out[d] = value;
      },
      /*grain=*/512);
  return out;
}

TrimmedMeanAggregator::TrimmedMeanAggregator(std::size_t trim) : trim_(trim) {}

std::string TrimmedMeanAggregator::name() const {
  return "TrimmedMean(k=" + std::to_string(trim_) + ")";
}

fl::Gradient TrimmedMeanAggregator::aggregate(
    std::span<const fl::Upload> uploads) const {
  const auto arrived = arrived_uploads(uploads);
  const std::size_t n = arrived.size();
  if (n <= 2 * trim_) {
    throw std::invalid_argument("TrimmedMean: n must exceed 2*trim");
  }
  const std::size_t dims = arrived.front()->gradient.size();
  fl::Gradient out(dims);
  util::parallel_for(
      0, dims,
      [&](std::size_t d) {
        std::vector<float> column(n);
        for (std::size_t i = 0; i < n; ++i) {
          column[i] = arrived[i]->gradient[d];
        }
        std::sort(column.begin(), column.end());
        double acc = 0.0;
        for (std::size_t i = trim_; i < n - trim_; ++i) {
          acc += static_cast<double>(column[i]);
        }
        out[d] = static_cast<float>(acc / static_cast<double>(n - 2 * trim_));
      },
      /*grain=*/512);
  return out;
}

FiflDetectionAggregator::FiflDetectionAggregator(
    DetectionConfig config, std::vector<chain::NodeId> servers)
    : config_(config), servers_(std::move(servers)) {
  if (servers_.empty()) {
    throw std::invalid_argument("FiflDetectionAggregator: no servers");
  }
}

fl::Gradient FiflDetectionAggregator::aggregate(
    std::span<const fl::Upload> uploads) const {
  const auto arrived = arrived_uploads(uploads);
  const std::size_t dims = arrived.front()->gradient.size();
  fl::SlicePlan plan(dims, servers_.size());
  fl::ServerCluster cluster(servers_, plan);
  DetectionModule detection(config_);
  // Everyone rejected: a zero G̃, a no-op round.
  return fl::aggregate(uploads, detection.run(uploads, cluster).accepted, dims);
}

fl::Gradient NormClipAggregator::aggregate(
    std::span<const fl::Upload> uploads) const {
  const auto arrived = arrived_uploads(uploads);
  std::vector<double> norms;
  norms.reserve(arrived.size());
  for (const fl::Upload* up : arrived) norms.push_back(up->gradient.norm());
  std::vector<double> sorted = norms;
  const std::size_t mid = sorted.size() / 2;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                   sorted.end());
  const double clip = sorted[mid];

  fl::Gradient out(arrived.front()->gradient.size());
  double total = 0.0;
  // order: worker upload index ascending (arrived_uploads preserves it)
  for (const fl::Upload* up : arrived) {
    total += static_cast<double>(up->samples);
  }
  for (std::size_t i = 0; i < arrived.size(); ++i) {
    const double scale =
        norms[i] > clip && norms[i] > 0.0 ? clip / norms[i] : 1.0;
    out.axpy(static_cast<float>(
                 scale * static_cast<double>(arrived[i]->samples) / total),
             arrived[i]->gradient);
  }
  return out;
}

ZenoAggregator::ZenoAggregator(std::size_t b, double rho, LossOracle loss)
    : b_(b), rho_(rho), loss_(std::move(loss)) {
  if (!loss_) throw std::invalid_argument("Zeno: null loss oracle");
  if (rho < 0.0) throw std::invalid_argument("Zeno: negative rho");
}

std::string ZenoAggregator::name() const {
  return "Zeno(b=" + std::to_string(b_) + ")";
}

void ZenoAggregator::set_parameters(std::vector<float> params) {
  params_ = std::move(params);
}

std::vector<double> ZenoAggregator::scores(
    std::span<const fl::Upload> uploads) const {
  if (params_.empty()) {
    throw std::logic_error("Zeno: set_parameters() before scoring");
  }
  const auto arrived = arrived_uploads(uploads);
  if (arrived.front()->gradient.size() != params_.size()) {
    throw std::invalid_argument("Zeno: parameter/gradient size mismatch");
  }
  const double base_loss = loss_(params_);
  std::vector<double> out(arrived.size());
  std::vector<float> shifted(params_.size());
  for (std::size_t i = 0; i < arrived.size(); ++i) {
    const fl::Gradient& g = arrived[i]->gradient;
    for (std::size_t k = 0; k < shifted.size(); ++k) {
      shifted[k] = params_[k] - g[k];
    }
    out[i] = base_loss - loss_(shifted) - rho_ * g.squared_norm();
  }
  return out;
}

fl::Gradient ZenoAggregator::aggregate(
    std::span<const fl::Upload> uploads) const {
  const auto arrived = arrived_uploads(uploads);
  const auto zeno_scores = scores(uploads);
  const std::size_t n = arrived.size();
  if (n <= b_) throw std::invalid_argument("Zeno: b >= arrived uploads");
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b2) {
    return zeno_scores[a] > zeno_scores[b2];
  });
  const std::size_t keep = n - b_;
  fl::Gradient out(arrived.front()->gradient.size());
  for (std::size_t k = 0; k < keep; ++k) {
    out.axpy(1.0f / static_cast<float>(keep), arrived[order[k]]->gradient);
  }
  return out;
}

std::vector<AggregatorPtr> standard_defenses(std::size_t workers, std::size_t f,
                                             DetectionConfig fifl_config) {
  std::vector<AggregatorPtr> out;
  out.push_back(std::make_unique<FedAvgAggregator>());
  out.push_back(std::make_unique<KrumAggregator>(f, 1));
  out.push_back(std::make_unique<KrumAggregator>(
      f, workers > f + 3 ? workers - f - 2 : 1));
  out.push_back(std::make_unique<MedianAggregator>());
  out.push_back(std::make_unique<TrimmedMeanAggregator>(f));
  out.push_back(std::make_unique<NormClipAggregator>());
  // FIFL benchmarks against the first two workers as servers (callers with
  // reputation state should pass their own selection).
  out.push_back(std::make_unique<FiflDetectionAggregator>(
      fifl_config, std::vector<chain::NodeId>{0, 1}));
  return out;
}

}  // namespace fifl::core
