// Kernel-layer micro-bench: sweeps the hot tensor kernels (dot, axpy,
// squared_norm, matmul) across sizes {1k, 64k, 1M} x ISA {scalar, avx2},
// reporting GB/s (bytes_per_second) per leg and, for the vector kernels,
// a measured speedup_vs_scalar counter on the AVX2 legs. The LeNet legs
// time one batch-32 training step's conv forward, conv backward products
// and ReLU at conv1's and conv2's shapes per ISA.
//
// Every leg re-asserts the determinism contract before timing anything:
// the scalar table and the leg's table must produce BIT-identical results
// on the bench inputs, else the leg aborts with SkipWithError. A perf
// number from a kernel that forked from scalar would be worse than no
// number, so the equivalence gate lives in the bench itself, not only in
// tests/tensor/test_kernels.cpp.
//
// AVX2 legs are registered only when the build and the CPU both support
// AVX2, so their absence from BENCH_micro_tensor_kernels.json is the
// machine-readable "skipped" signal (mirrored by the avx2_supported
// counter on every scalar leg).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nn/layers.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/rng.hpp"

namespace kernels = fifl::tensor::kernels;

namespace {

std::vector<float> random_vec(std::uint64_t seed, std::size_t n) {
  fifl::util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  return ba == bb;
}

bool bits_equal_vec(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Cache key of one leg's speedup counter: kernel, ISA, size.
std::string leg_key(const char* kernel, const kernels::KernelTable& kt,
                    std::size_t n) {
  return std::string(kernel) + "/" + kt.name + "/" + std::to_string(n);
}

void common_counters(benchmark::State& state, const kernels::KernelTable& kt) {
  state.counters["avx2_supported"] =
      (kernels::avx2_table() != nullptr && kernels::cpu_supports_avx2()) ? 1.0
                                                                         : 0.0;
  state.counters["isa_avx2"] = (std::strcmp(kt.name, "avx2") == 0) ? 1.0 : 0.0;
}

void BM_Dot(benchmark::State& state, kernels::Isa isa, std::size_t n) {
  const kernels::KernelTable& kt = kernels::table(isa);
  const kernels::KernelTable& sc = kernels::scalar_table();
  const std::vector<float> a = random_vec(0xBE7C0001 + n, n);
  const std::vector<float> b = random_vec(0xBE7C0002 + n, n);
  if (!bits_equal(sc.dot(a.data(), b.data(), n),
                  kt.dot(a.data(), b.data(), n))) {
    state.SkipWithError("dot: scalar vs dispatched results not bit-identical");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.dot(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * sizeof(float)));
  state.counters["speedup_vs_scalar"] = fifl::bench::once_per_leg(
      leg_key("dot", kt, n), [&] {
        return fifl::bench::speedup_vs(
            [&] { benchmark::DoNotOptimize(kt.dot(a.data(), b.data(), n)); },
            [&] { benchmark::DoNotOptimize(sc.dot(a.data(), b.data(), n)); });
      });
  common_counters(state, kt);
}

void BM_SquaredNorm(benchmark::State& state, kernels::Isa isa, std::size_t n) {
  const kernels::KernelTable& kt = kernels::table(isa);
  const kernels::KernelTable& sc = kernels::scalar_table();
  const std::vector<float> a = random_vec(0xBE7C0003 + n, n);
  if (!bits_equal(sc.squared_norm(a.data(), n), kt.squared_norm(a.data(), n))) {
    state.SkipWithError(
        "squared_norm: scalar vs dispatched results not bit-identical");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.squared_norm(a.data(), n));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * sizeof(float)));
  state.counters["speedup_vs_scalar"] = fifl::bench::once_per_leg(
      leg_key("squared_norm", kt, n), [&] {
        return fifl::bench::speedup_vs(
            [&] { benchmark::DoNotOptimize(kt.squared_norm(a.data(), n)); },
            [&] { benchmark::DoNotOptimize(sc.squared_norm(a.data(), n)); });
      });
  common_counters(state, kt);
}

void BM_Axpy(benchmark::State& state, kernels::Isa isa, std::size_t n) {
  const kernels::KernelTable& kt = kernels::table(isa);
  const kernels::KernelTable& sc = kernels::scalar_table();
  const std::vector<float> x = random_vec(0xBE7C0004 + n, n);
  const std::vector<float> base = random_vec(0xBE7C0005 + n, n);
  {
    std::vector<float> ds = base, dk = base;
    sc.axpy(ds.data(), 0.7f, x.data(), n);
    kt.axpy(dk.data(), 0.7f, x.data(), n);
    if (!bits_equal_vec(ds, dk)) {
      state.SkipWithError(
          "axpy: scalar vs dispatched results not bit-identical");
      return;
    }
  }
  // Timed loop uses alpha = 0 so dst stays bounded across iterations
  // (full multiply-add work per element, no drift toward inf/denormals).
  std::vector<float> dst = base;
  for (auto _ : state) {
    kt.axpy(dst.data(), 0.0f, x.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(3 * n * sizeof(float)));
  state.counters["speedup_vs_scalar"] = fifl::bench::once_per_leg(
      leg_key("axpy", kt, n), [&] {
        return fifl::bench::speedup_vs(
            [&] { kt.axpy(dst.data(), 0.0f, x.data(), n); },
            [&] { sc.axpy(dst.data(), 0.0f, x.data(), n); });
      });
  common_counters(state, kt);
}

// Square matmul, side x side (side^2 elements per matrix matching the
// vector-kernel sweep sizes). Timed region = zero C + accumulate, which
// is exactly what tensor::matmul does per row band. No speedup counter
// here: a serial re-timing of the 1024 leg would dominate the bench's
// wall clock for a secondary statistic.
void BM_Matmul(benchmark::State& state, kernels::Isa isa, std::size_t side) {
  const kernels::KernelTable& kt = kernels::table(isa);
  const kernels::KernelTable& sc = kernels::scalar_table();
  const std::size_t m = side, k = side, n = side;
  const std::vector<float> a = random_vec(0xBE7C0006 + side, m * k);
  const std::vector<float> b = random_vec(0xBE7C0007 + side, k * n);
  std::vector<float> c(m * n, 0.0f);
  {
    std::vector<float> cs(m * n, 0.0f), ck(m * n, 0.0f);
    sc.matmul_rows(a.data(), b.data(), cs.data(), 0, m, k, n);
    kt.matmul_rows(a.data(), b.data(), ck.data(), 0, m, k, n);
    if (!bits_equal_vec(cs, ck)) {
      state.SkipWithError(
          "matmul: scalar vs dispatched results not bit-identical");
      return;
    }
  }
  for (auto _ : state) {
    kt.fill(c.data(), 0.0f, c.size());
    kt.matmul_rows(a.data(), b.data(), c.data(), 0, m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(2 * m * k * n));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>((m * k + k * n + m * n) * sizeof(float)));
  common_counters(state, kt);
}

// LeNet's convs (k5, p2, stride 1) at the training batch of 32.
struct LeNetConv {
  const char* name;
  std::size_t c, oc, hw;  // input channels, output channels, image side
  bool input_grad;        // conv1 is the first layer: no input gradient
};
constexpr LeNetConv kLeNetConvs[] = {{"conv1", 1, 6, 28, false},
                                     {"conv2", 6, 16, 14, true}};
constexpr std::size_t kConvK = 5, kConvPad = 2, kConvBatch = 32;

/// A batch of zero-bordered images as conv2d_forward builds them, each
/// followed by the slack the conv kernel may read, plus the tap table.
struct PaddedBatch {
  std::size_t side, image;  // padded side; floats per image incl. slack
  std::vector<float> data;
  std::vector<std::size_t> taps;
  kernels::ConvImageShape shape;
};

PaddedBatch padded_batch(const LeNetConv& leg, std::uint64_t seed) {
  PaddedBatch pb;
  pb.side = leg.hw + 2 * kConvPad;
  pb.image = leg.c * pb.side * pb.side + kernels::kFloatLanes;
  pb.data.assign(kConvBatch * pb.image, 0.0f);
  const std::vector<float> v =
      random_vec(seed, kConvBatch * leg.c * leg.hw * leg.hw);
  std::size_t next = 0;
  for (std::size_t img = 0; img < kConvBatch; ++img) {
    for (std::size_t ch = 0; ch < leg.c; ++ch) {
      for (std::size_t y = 0; y < leg.hw; ++y) {
        float* row = pb.data.data() + img * pb.image +
                     (ch * pb.side + y + kConvPad) * pb.side + kConvPad;
        for (std::size_t x = 0; x < leg.hw; ++x) row[x] = v[next++];
      }
    }
  }
  pb.taps.resize(leg.c * kConvK * kConvK);
  kernels::conv_taps(leg.c, kConvK, pb.side, pb.side, pb.taps.data());
  pb.shape = kernels::ConvImageShape{.padded_w = pb.side,
                                     .stride = 1,
                                     .patch = pb.taps.size(),
                                     .out_channels = leg.oc,
                                     .out_h = leg.hw,
                                     .out_w = leg.hw};
  return pb;
}

/// The output gradient conv2d_backward hands the kernels, per image
/// (pixels × OC). As in LeNet, the leg's conv output goes through ReLU and
/// a 2×2 max-pool, and a dense gradient at the pool output comes back
/// through both: each window passes at most one entry, the one at its
/// argmax, and only if that entry was positive.
std::vector<float> conv_output_grad(const LeNetConv& leg, const PaddedBatch& pb,
                                    std::uint64_t seed) {
  const kernels::KernelTable& sc = kernels::scalar_table();
  const std::size_t px = leg.hw * leg.hw, out = leg.oc * px;
  const std::vector<float> w = random_vec(seed, leg.oc * pb.shape.patch);
  const std::vector<float> b = random_vec(seed + 0x10, leg.oc);
  fifl::tensor::Tensor y({kConvBatch, leg.oc, leg.hw, leg.hw});
  for (std::size_t img = 0; img < kConvBatch; ++img) {
    sc.conv_forward_image(pb.data.data() + img * pb.image, pb.taps.data(),
                          w.data(), b.data(), y.data() + img * out, pb.shape);
  }
  fifl::nn::ReLU relu;
  fifl::nn::MaxPool2d pool(2);
  const fifl::tensor::Tensor pooled = pool.forward(relu.forward(y));
  const fifl::tensor::Tensor g = relu.backward(pool.backward(fifl::tensor::Tensor(
      pooled.shape(), random_vec(seed + 0x20, pooled.numel()))));
  std::vector<float> gt(g.numel());
  for (std::size_t img = 0; img < kConvBatch; ++img) {
    for (std::size_t o = 0; o < leg.oc; ++o) {
      for (std::size_t p = 0; p < px; ++p) {
        gt[(img * px + p) * leg.oc + o] = g.data()[img * out + o * px + p];
      }
    }
  }
  return gt;
}

void BM_ConvForward(benchmark::State& state, kernels::Isa isa,
                    const LeNetConv& leg) {
  const kernels::KernelTable& kt = kernels::table(isa);
  const kernels::KernelTable& sc = kernels::scalar_table();
  const PaddedBatch pb = padded_batch(leg, 0xBE7C0010 + leg.c);
  const std::size_t patch = pb.shape.patch, out = leg.oc * leg.hw * leg.hw;
  const std::vector<float> w = random_vec(0xBE7C0011 + leg.c, leg.oc * patch);
  const std::vector<float> b = random_vec(0xBE7C0012 + leg.c, leg.oc);
  std::vector<float> y(kConvBatch * out);
  auto forward = [&](const kernels::KernelTable& t) {
    for (std::size_t img = 0; img < kConvBatch; ++img) {
      t.conv_forward_image(pb.data.data() + img * pb.image, pb.taps.data(),
                           w.data(), b.data(), y.data() + img * out, pb.shape);
    }
  };
  forward(sc);
  const std::vector<float> ref = y;
  forward(kt);
  if (!bits_equal_vec(ref, y)) {
    state.SkipWithError(
        "conv forward: scalar vs dispatched results not bit-identical");
    return;
  }
  for (auto _ : state) {
    forward(kt);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kConvBatch * out * patch));
  common_counters(state, kt);
}

// The backward's kernel products per image, as conv2d_backward runs them:
// the weight gradient dW += gᵀ·cols (matmul_tn_rows) and, past the first
// layer, the input gradient's rows dcols = g·W (matmul_rows). The unfold,
// transpose and fold around them are not timed.
void BM_ConvBackward(benchmark::State& state, kernels::Isa isa,
                     const LeNetConv& leg) {
  const kernels::KernelTable& kt = kernels::table(isa);
  const kernels::KernelTable& sc = kernels::scalar_table();
  const PaddedBatch pb = padded_batch(leg, 0xBE7C0013 + leg.c);
  const std::size_t patch = pb.shape.patch, px = leg.hw * leg.hw;
  std::vector<float> cols(kConvBatch * px * patch);
  for (std::size_t img = 0; img < kConvBatch; ++img) {
    for (std::size_t p = 0; p < px; ++p) {
      const float* x = pb.data.data() + img * pb.image +
                       (p / leg.hw) * pb.side + p % leg.hw;
      for (std::size_t kk = 0; kk < patch; ++kk) {
        cols[(img * px + p) * patch + kk] = x[pb.taps[kk]];
      }
    }
  }
  const std::vector<float> gt = conv_output_grad(leg, pb, 0xBE7C0100 + leg.c);
  const std::vector<float> w = random_vec(0xBE7C0015 + leg.c, leg.oc * patch);
  // The comparison below sees the summed weight gradient and the last
  // image's input-gradient rows.
  std::vector<float> gw(leg.oc * patch), dcols(px * patch);
  auto backward = [&](const kernels::KernelTable& t) {
    t.fill(gw.data(), 0.0f, gw.size());
    for (std::size_t img = 0; img < kConvBatch; ++img) {
      const float* g = gt.data() + img * px * leg.oc;
      t.matmul_tn_rows(g, cols.data() + img * px * patch, gw.data(), 0,
                       leg.oc, px, leg.oc, patch);
      if (leg.input_grad) {
        t.fill(dcols.data(), 0.0f, dcols.size());
        t.matmul_rows(g, w.data(), dcols.data(), 0, px, leg.oc, patch);
      }
    }
  };
  backward(sc);
  const std::vector<float> ref_gw = gw, ref_dcols = dcols;
  backward(kt);
  if (!bits_equal_vec(ref_gw, gw) || !bits_equal_vec(ref_dcols, dcols)) {
    state.SkipWithError(
        "conv backward: scalar vs dispatched results not bit-identical");
    return;
  }
  for (auto _ : state) {
    backward(kt);
    benchmark::DoNotOptimize(gw.data());
    benchmark::DoNotOptimize(dcols.data());
    benchmark::ClobberMemory();
  }
  state.counters["grad_zero_share"] =
      static_cast<double>(std::count(gt.begin(), gt.end(), 0.0f)) /
      static_cast<double>(gt.size());
  common_counters(state, kt);
}

// ReLU forward (output + pass mask) and backward over one batch's conv
// output, half of it negative.
void BM_Relu(benchmark::State& state, kernels::Isa isa, const LeNetConv& leg) {
  const kernels::KernelTable& kt = kernels::table(isa);
  const kernels::KernelTable& sc = kernels::scalar_table();
  const std::size_t n = kConvBatch * leg.oc * leg.hw * leg.hw;
  const std::vector<float> x = random_vec(0xBE7C0016 + leg.c, n);
  const std::vector<float> g = random_vec(0xBE7C0017 + leg.c, n);
  std::vector<float> y(n), gx(n);
  std::vector<std::uint8_t> pass(n);
  auto relu = [&](const kernels::KernelTable& t) {
    t.relu_forward(x.data(), y.data(), pass.data(), n);
    t.relu_backward(g.data(), pass.data(), gx.data(), n);
  };
  relu(sc);
  const std::vector<float> ref_y = y, ref_gx = gx;
  const std::vector<std::uint8_t> ref_pass = pass;
  relu(kt);
  if (!bits_equal_vec(ref_y, y) || !bits_equal_vec(ref_gx, gx) ||
      ref_pass != pass) {
    state.SkipWithError("relu: scalar vs dispatched results not bit-identical");
    return;
  }
  for (auto _ : state) {
    relu(kt);
    benchmark::DoNotOptimize(gx.data());
    benchmark::ClobberMemory();
  }
  // x, y, pass, g, pass again, gx.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * (5 * sizeof(float) + 2)));
  common_counters(state, kt);
}

// Registered at static-init time (before micro_main's Initialize) so the
// AVX2 column exists exactly when it can actually run.
struct KernelBenchRegistrar {
  KernelBenchRegistrar() {
    std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
    if (kernels::avx2_table() != nullptr && kernels::cpu_supports_avx2()) {
      isas.push_back(kernels::Isa::kAvx2);
    }
    const std::size_t vec_sizes[] = {1024, 65536, 1048576};
    const std::size_t mat_sides[] = {32, 256, 1024};
    for (const kernels::Isa isa : isas) {
      const std::string tag = kernels::isa_name(isa);
      for (const std::size_t n : vec_sizes) {
        const std::string sz = "/" + std::to_string(n);
        benchmark::RegisterBenchmark(("BM_Dot/" + tag + sz).c_str(), BM_Dot,
                                     isa, n)
            ->Unit(benchmark::kMicrosecond);
        benchmark::RegisterBenchmark(("BM_SquaredNorm/" + tag + sz).c_str(),
                                     BM_SquaredNorm, isa, n)
            ->Unit(benchmark::kMicrosecond);
        benchmark::RegisterBenchmark(("BM_Axpy/" + tag + sz).c_str(), BM_Axpy,
                                     isa, n)
            ->Unit(benchmark::kMicrosecond);
      }
      for (const std::size_t side : mat_sides) {
        benchmark::RegisterBenchmark(
            ("BM_Matmul/" + tag + "/" + std::to_string(side) + "x" +
             std::to_string(side))
                .c_str(),
            BM_Matmul, isa, side)
            ->Unit(benchmark::kMicrosecond);
      }
      for (const LeNetConv& leg : kLeNetConvs) {
        const std::string sz = "/" + tag + "/" + leg.name;
        benchmark::RegisterBenchmark(("BM_ConvForward" + sz).c_str(),
                                     BM_ConvForward, isa, leg)
            ->Unit(benchmark::kMicrosecond);
        benchmark::RegisterBenchmark(("BM_ConvBackward" + sz).c_str(),
                                     BM_ConvBackward, isa, leg)
            ->Unit(benchmark::kMicrosecond);
        benchmark::RegisterBenchmark(("BM_Relu" + sz).c_str(), BM_Relu, isa,
                                     leg)
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
};

const KernelBenchRegistrar kRegistrar;

}  // namespace
