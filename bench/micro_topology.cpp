// Polycentric-architecture ablation (Sec. 3.2): cost of the slice algebra
// and the full FIFL assessment pipeline as the server count M sweeps from
// centralized (M=1) to decentralized (M=N). Slice bookkeeping is O(d)
// regardless of M, so the architecture choice is free at assessment time
// — its benefits (parallel communication, fault tolerance) come from the
// deployment topology, not extra compute.
#include <benchmark/benchmark.h>

#include "core/fifl.hpp"
#include "fl/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace fifl;

constexpr std::size_t kDims = 61706;  // LeNet-28 parameter count
constexpr std::size_t kWorkers = 10;

std::vector<fl::Upload> make_uploads(std::size_t dims, std::size_t workers) {
  util::Rng rng(5);
  std::vector<float> direction(dims);
  for (auto& v : direction) v = static_cast<float>(rng.gaussian());
  std::vector<fl::Upload> uploads(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    uploads[i].worker = static_cast<chain::NodeId>(i);
    uploads[i].samples = 100;
    uploads[i].gradient = fl::Gradient(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      uploads[i].gradient[d] =
          direction[d] + static_cast<float>(rng.gaussian(0.0, 0.3));
    }
  }
  return uploads;
}

void BM_SplitRecombine(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  fl::SlicePlan plan(kDims, m);
  fl::Gradient g(kDims);
  util::Rng rng(1);
  for (std::size_t i = 0; i < kDims; ++i) {
    g[i] = static_cast<float>(rng.gaussian());
  }
  for (auto _ : state) {
    std::vector<std::vector<float>> slices;
    slices.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      auto view = plan.slice(g, j);
      slices.emplace_back(view.begin(), view.end());
    }
    benchmark::DoNotOptimize(fl::recombine(plan, slices));
  }
}
BENCHMARK(BM_SplitRecombine)->Arg(1)->Arg(2)->Arg(5)->Arg(10);

void BM_FullAssessmentPipeline(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto uploads = make_uploads(kDims, kWorkers);
  core::FiflConfig cfg;
  cfg.servers = m;
  cfg.record_to_ledger = static_cast<bool>(state.range(1));
  core::FiflEngine engine(cfg, kWorkers, kDims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.process_round(uploads));
  }
  state.SetLabel(cfg.record_to_ledger ? "with ledger" : "no ledger");
}
BENCHMARK(BM_FullAssessmentPipeline)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({10, 0})
    ->Args({2, 1})
    ->Unit(benchmark::kMillisecond);

// fl::aggregate (Eq. 2) with every upload accepted.
void BM_WeightedAggregate(benchmark::State& state) {
  const auto uploads = make_uploads(kDims, static_cast<std::size_t>(state.range(0)));
  const std::vector<int> accept(uploads.size(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::aggregate(uploads, accept, kDims));
  }
}
BENCHMARK(BM_WeightedAggregate)->Arg(5)->Arg(10)->Arg(20);

}  // namespace
