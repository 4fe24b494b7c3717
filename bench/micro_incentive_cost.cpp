// Ablation bench (Sec. 2/5.1 claim): Shapley-style payoff division costs
// O(2^N) subset evaluations while FIFL / Union / Individual / Equal are
// linear in N — the practical reason the paper's gradient-based
// contribution is "lightweight".
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "bench_util.hpp"
#include "core/contribution.hpp"
#include "market/baselines.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace fifl::market;

std::vector<double> make_samples(std::size_t n) {
  fifl::util::Rng rng(42);
  std::vector<double> samples(n);
  for (auto& s : samples) s = rng.uniform(1.0, 10000.0);
  return samples;
}

void BM_ShapleyExact(benchmark::State& state) {
  const auto samples = make_samples(static_cast<std::size_t>(state.range(0)));
  ShapleyIncentive mech(/*exact_limit=*/25, /*mc_permutations=*/1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.exact_weights(samples));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ShapleyExact)->DenseRange(6, 18, 4)->Complexity();

void BM_ShapleyMonteCarlo(benchmark::State& state) {
  const auto samples = make_samples(static_cast<std::size_t>(state.range(0)));
  ShapleyIncentive mech(/*exact_limit=*/0, /*mc_permutations=*/2000, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.monte_carlo_weights(samples));
  }
}
BENCHMARK(BM_ShapleyMonteCarlo)->DenseRange(6, 18, 4);

void BM_Union(benchmark::State& state) {
  const auto samples = make_samples(static_cast<std::size_t>(state.range(0)));
  UnionIncentive mech;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.weights(samples, {}));
  }
}
BENCHMARK(BM_Union)->DenseRange(6, 18, 4);

void BM_Fifl(benchmark::State& state) {
  const auto samples = make_samples(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> reputations(samples.size(), 1.0);
  FiflIncentive mech;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.weights(samples, reputations));
  }
}
BENCHMARK(BM_Fifl)->DenseRange(6, 18, 4);

void BM_Individual(benchmark::State& state) {
  const auto samples = make_samples(static_cast<std::size_t>(state.range(0)));
  IndividualIncentive mech;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.weights(samples, {}));
  }
}
BENCHMARK(BM_Individual)->DenseRange(6, 18, 4);

// The incentive pipeline's tensor-heavy stage is contribution measurement
// (Eq. 13/14): one squared distance per worker against the global
// gradient plus ‖G̃‖² for the anchor. This leg runs the real
// ContributionModule over 8 workers of LeNet-sized (44,426-parameter)
// gradients — all routed through the dispatched kernel table — and
// reports speedup_vs_serial against the pre-kernel-layer serial loops
// (see bench_util.hpp), plus the dispatched ISA. smoke_bench.sh gates on
// these counters.
void BM_ContributionDistanceKernels(benchmark::State& state) {
  namespace fifl_kernels = fifl::tensor::kernels;
  namespace core = fifl::core;
  namespace fl = fifl::fl;
  // LeNet-sized gradients — the contribution mechanism always runs on
  // model-sized vectors, and at this size the working set (8 uploads + the
  // global gradient ≈ 1.6 MB) is cache-resident like the real round state,
  // so the leg measures kernel arithmetic, not DRAM streaming.
  const std::size_t workers = 8;
  const std::size_t n = 44426;

  fifl::util::Rng rng(29);
  fl::Gradient global(n);
  for (std::size_t i = 0; i < n; ++i) {
    global[i] = static_cast<float>(rng.gaussian(0.0, 0.01));
  }
  std::vector<fl::Upload> uploads(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    uploads[w].worker = static_cast<fifl::chain::NodeId>(w);
    uploads[w].arrived = true;
    uploads[w].samples = 1;
    uploads[w].gradient = fl::Gradient(n);
    for (std::size_t i = 0; i < n; ++i) {
      uploads[w].gradient[i] = static_cast<float>(rng.gaussian(0.0, 0.01));
    }
  }
  const float* g = global.flat().data();
  const float* u0 = uploads[0].gradient.flat().data();

  // Determinism gate before timing anything.
  const double ds = fifl_kernels::scalar_table().squared_distance(g, u0, n);
  const double dk = fifl_kernels::active().squared_distance(g, u0, n);
  if (std::memcmp(&ds, &dk, sizeof ds) != 0) {
    state.SkipWithError(
        "squared_distance: scalar vs dispatched not bit-identical");
    return;
  }

  core::ContributionModule mech({.anchor = core::Anchor::kZeroGradient});
  for (auto _ : state) {
    const auto result = mech.run(uploads, global);
    benchmark::DoNotOptimize(result.contributions.data());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>((workers + 1) * n * sizeof(float)));
  // speedup_vs_serial compares the dot-heavy path itself — what dominates
  // mech.run — against the serial loops the kernel layer replaced, same
  // distances and anchor on both sides.
  const fifl_kernels::KernelTable& kt = fifl_kernels::active();
  const auto fast_path = [&] {
    double total = 0.0;
    for (std::size_t w = 0; w < workers; ++w) {
      total += kt.squared_distance(uploads[w].gradient.flat().data(), g, n);
    }
    total += kt.squared_norm(g, n);  // anchor ‖G̃‖²
    benchmark::DoNotOptimize(total);
  };
  const auto slow_path = [&] {
    double total = 0.0;
    for (std::size_t w = 0; w < workers; ++w) {
      total += fifl::bench::serial_squared_distance(
          uploads[w].gradient.flat().data(), g, n);
    }
    total += fifl::bench::serial_dot(g, g, n);  // anchor ‖G̃‖²
    benchmark::DoNotOptimize(total);
  };
  // Two interleaved measurements of the same true ratio; take the max so a
  // scheduler hiccup on one fast-side window cannot fail the smoke gate.
  state.counters["speedup_vs_serial"] =
      fifl::bench::once_per_leg("BM_ContributionDistanceKernels", [&] {
        return std::max(fifl::bench::speedup_vs(fast_path, slow_path),
                        fifl::bench::speedup_vs(fast_path, slow_path));
      });
  state.counters["isa_avx2"] =
      (fifl_kernels::active_isa() == fifl_kernels::Isa::kAvx2) ? 1.0 : 0.0;
  state.counters["avx2_supported"] = (fifl_kernels::avx2_table() != nullptr &&
                                      fifl_kernels::cpu_supports_avx2())
                                         ? 1.0
                                         : 0.0;
}
BENCHMARK(BM_ContributionDistanceKernels)->Unit(benchmark::kMillisecond);

}  // namespace
