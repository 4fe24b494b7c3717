// Kernel-layer micro-bench: sweeps the hot tensor kernels (dot, axpy,
// squared_norm, matmul) across sizes {1k, 64k, 1M} x ISA {scalar, avx2},
// reporting GB/s (bytes_per_second) per leg and, for the vector kernels,
// a measured speedup_vs_scalar counter on the AVX2 legs.
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

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
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
    }
  }
};

const KernelBenchRegistrar kRegistrar;

}  // namespace
