// Ablation bench (Sec. 4.1 claim): FIFL's Taylor first-order detection
// score <G, G_i> costs one dot product per worker, while the exact Zeno
// loss-difference score needs two full inference passes over a validation
// batch. This bench measures both on the real LeNet stack.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <span>

#include "bench_util.hpp"
#include "nn/loss.hpp"
#include "tensor/kernels/kernels.hpp"

namespace {

using namespace fifl;

struct Fixture {
  std::unique_ptr<nn::Sequential> model;
  std::vector<float> params;
  fl::Gradient gradient;
  tensor::Tensor val_images;
  std::vector<std::int32_t> val_labels;

  Fixture() {
    util::Rng rng(7);
    model = nn::make_lenet({.channels = 1, .image_size = 28, .classes = 10}, rng);
    params = model->flatten_parameters();
    gradient = fl::Gradient(params.size());
    for (std::size_t i = 0; i < gradient.size(); ++i) {
      gradient[i] = static_cast<float>(rng.gaussian(0.0, 0.01));
    }
    auto ds = data::make_synthetic(data::mnist_like(64, 9));
    val_images = ds.images.clone();
    val_labels = ds.labels;
  }

  double loss_at(const std::vector<float>& p) {
    model->load_parameters(p);
    nn::SoftmaxCrossEntropy loss;
    return loss.forward(model->forward(val_images), val_labels);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_ExactLossDifferenceScore(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    const double score = core::DetectionModule::exact_score(
        f.params, f.gradient,
        [&](const std::vector<float>& p) { return f.loss_at(p); });
    benchmark::DoNotOptimize(score);
  }
}
BENCHMARK(BM_ExactLossDifferenceScore)->Unit(benchmark::kMillisecond);

void BM_TaylorInnerProductScore(benchmark::State& state) {
  Fixture& f = fixture();
  // Benchmark gradient = another gradient vector of the same size.
  fl::Gradient bench_grad(f.gradient.size());
  util::Rng rng(11);
  for (std::size_t i = 0; i < bench_grad.size(); ++i) {
    bench_grad[i] = static_cast<float>(rng.gaussian(0.0, 0.01));
  }
  fl::SlicePlan plan(f.gradient.size(), 2);
  std::vector<std::vector<float>> bench_slices;
  for (std::size_t j = 0; j < 2; ++j) {
    auto view = plan.slice(bench_grad, j);
    bench_slices.emplace_back(view.begin(), view.end());
  }
  core::DetectionModule det({.threshold = 0.0});
  std::vector<fl::Upload> uploads(1);
  uploads[0].worker = 0;
  uploads[0].samples = 1;
  uploads[0].gradient = f.gradient;
  for (auto _ : state) {
    const auto result = det.run(uploads, plan, bench_slices);
    benchmark::DoNotOptimize(result.scores[0]);
  }
}
BENCHMARK(BM_TaylorInnerProductScore)->Unit(benchmark::kMillisecond);

// Score-normalisation variants (raw / cosine / projection) cost the same
// dot product; this confirms the normalisation is free.
void BM_ScoreKinds(benchmark::State& state) {
  Fixture& f = fixture();
  fl::SlicePlan plan(f.gradient.size(), 4);
  std::vector<std::vector<float>> bench_slices;
  for (std::size_t j = 0; j < 4; ++j) {
    auto view = plan.slice(f.gradient, j);
    bench_slices.emplace_back(view.begin(), view.end());
  }
  core::DetectionModule det(
      {.threshold = 0.0,
       .score = static_cast<core::ScoreKind>(state.range(0))});
  std::vector<fl::Upload> uploads(8);
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    uploads[i].worker = static_cast<chain::NodeId>(i);
    uploads[i].samples = 1;
    uploads[i].gradient = f.gradient;
  }
  for (auto _ : state) {
    const auto result = det.run(uploads, plan, bench_slices);
    benchmark::DoNotOptimize(result.accepted);
  }
}
BENCHMARK(BM_ScoreKinds)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// The detection hot path per round: stage the benchmark gradient's slices,
// then one <benchmark slice, upload slice> dot product per worker per
// slice. This leg compares the whole path before and after the kernel
// layer on the BM_TaylorInnerProductScore shape (1 upload, 2 slices,
// LeNet-size gradient). Slow side is the pre-kernel-layer round: copy each
// benchmark slice into a fresh std::vector (what benchmark_slices /
// arena staging did every round) and run the serial dot loop. Fast side is
// the current round: zero-copy span views plus the dispatched kernel dot.
// smoke_bench.sh gates on the resulting counters.
void BM_TaylorDotPathKernels(benchmark::State& state) {
  namespace kernels = tensor::kernels;
  Fixture& f = fixture();
  fl::Gradient bench_grad(f.gradient.size());
  util::Rng rng(13);
  for (std::size_t i = 0; i < bench_grad.size(); ++i) {
    bench_grad[i] = static_cast<float>(rng.gaussian(0.0, 0.01));
  }
  const std::size_t n = f.gradient.size();
  fl::SlicePlan plan(n, 2);

  const kernels::KernelTable& kt = kernels::active();
  // Determinism gate: the dispatched table must agree with scalar bit for
  // bit before its timing means anything.
  const double ds =
      kernels::scalar_table().dot(bench_grad.flat().data(),
                                  f.gradient.flat().data(), n);
  const double dk = kt.dot(bench_grad.flat().data(), f.gradient.flat().data(), n);
  if (std::memcmp(&ds, &dk, sizeof ds) != 0) {
    state.SkipWithError("dot: scalar vs dispatched not bit-identical");
    return;
  }

  const auto fast_path = [&] {
    double total = 0.0;
    for (std::size_t j = 0; j < plan.servers(); ++j) {
      const std::span<const float> bs = plan.slice(bench_grad, j);
      const std::span<const float> us = plan.slice(f.gradient, j);
      total += kt.dot(bs.data(), us.data(), bs.size());
    }
    benchmark::DoNotOptimize(total);
  };
  const auto slow_path = [&] {
    // Pre-kernel-layer shape: materialise the benchmark slices, then the
    // serial double-accumulator dot the kernel layer replaced.
    std::vector<std::vector<float>> staged;
    staged.reserve(plan.servers());
    for (std::size_t j = 0; j < plan.servers(); ++j) {
      const std::span<const float> bs = plan.slice(bench_grad, j);
      staged.emplace_back(bs.begin(), bs.end());
    }
    double total = 0.0;
    for (std::size_t j = 0; j < plan.servers(); ++j) {
      const std::span<const float> us = plan.slice(f.gradient, j);
      total += bench::serial_dot(staged[j].data(), us.data(), us.size());
    }
    benchmark::DoNotOptimize(total);
  };

  for (auto _ : state) {
    fast_path();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * sizeof(float)));
  // Two interleaved measurements of the same true ratio; take the max so a
  // scheduler hiccup on one fast-side window cannot fail the smoke gate.
  state.counters["speedup_vs_serial"] =
      bench::once_per_leg("BM_TaylorDotPathKernels", [&] {
        return std::max(bench::speedup_vs(fast_path, slow_path),
                        bench::speedup_vs(fast_path, slow_path));
      });
  state.counters["isa_avx2"] =
      (kernels::active_isa() == kernels::Isa::kAvx2) ? 1.0 : 0.0;
  state.counters["avx2_supported"] =
      (kernels::avx2_table() != nullptr && kernels::cpu_supports_avx2()) ? 1.0
                                                                         : 0.0;
}
BENCHMARK(BM_TaylorDotPathKernels)->Unit(benchmark::kMicrosecond);

}  // namespace
