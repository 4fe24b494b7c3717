// Cross-ISA equivalence for the SIMD kernel layer: the scalar and AVX2
// backends must be BIT-identical — not approximately equal — for every
// kernel, at awkward lengths straddling the 16-double / 8-float lane
// widths (empty, sub-lane, lane±1, and a large ragged tail). This is the
// executable form of the determinism contract in
// src/tensor/kernels/kernels.hpp; if any assertion here turns into an
// EXPECT_NEAR the contract is gone and mixed-ISA federations fork.
//
// Runs meaningfully only on AVX2 hardware; on anything else every
// comparison degenerates to scalar-vs-scalar and the suite GTEST_SKIPs
// loudly rather than green-washing.
#include "tensor/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace kernels = fifl::tensor::kernels;

namespace {

// Lengths straddling the 16-double and 8-float lane widths plus a large
// ragged size (64k + 3).
const std::size_t kSizes[] = {0, 1, 7, 8, 9, 15, 16, 17, 1023, 65539};

std::vector<float> random_vec(fifl::util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    // Mixed magnitudes so reassociation would actually change the bits.
    x = static_cast<float>(rng.uniform(-3.0, 3.0)) *
        static_cast<float>(std::pow(10.0, rng.uniform(-3.0, 3.0)));
  }
  return v;
}

// Bitwise equality including NaN payloads and signed zeros.
::testing::AssertionResult bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "double bits differ: " << a << " vs " << b;
}

::testing::AssertionResult bits_equal_f(float a, float b) {
  std::uint32_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "float bits differ: " << a << " vs " << b;
}

class KernelEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kernels::avx2_table() == nullptr || !kernels::cpu_supports_avx2()) {
      GTEST_SKIP() << "AVX2 unavailable (build or CPU); scalar-vs-scalar "
                      "comparison would prove nothing";
    }
    scalar_ = &kernels::scalar_table();
    avx2_ = kernels::avx2_table();
  }

  const kernels::KernelTable* scalar_ = nullptr;
  const kernels::KernelTable* avx2_ = nullptr;
};

TEST_F(KernelEquivalence, ReductionsBitIdenticalAcrossSizes) {
  fifl::util::Rng rng(0xF1F11001);
  for (const std::size_t n : kSizes) {
    const std::vector<float> a = random_vec(rng, n);
    const std::vector<float> b = random_vec(rng, n);
    EXPECT_TRUE(bits_equal(scalar_->dot(a.data(), b.data(), n),
                           avx2_->dot(a.data(), b.data(), n)))
        << "dot n=" << n;
    EXPECT_TRUE(bits_equal(scalar_->squared_norm(a.data(), n),
                           avx2_->squared_norm(a.data(), n)))
        << "squared_norm n=" << n;
    EXPECT_TRUE(bits_equal(scalar_->squared_distance(a.data(), b.data(), n),
                           avx2_->squared_distance(a.data(), b.data(), n)))
        << "squared_distance n=" << n;
    EXPECT_TRUE(
        bits_equal(scalar_->sum(a.data(), n), avx2_->sum(a.data(), n)))
        << "sum n=" << n;
  }
}

TEST_F(KernelEquivalence, ElementwiseBitIdenticalAcrossSizes) {
  fifl::util::Rng rng(0xF1F11002);
  for (const std::size_t n : kSizes) {
    const std::vector<float> x = random_vec(rng, n);
    const std::vector<float> base = random_vec(rng, n);
    const float alpha = static_cast<float>(rng.uniform(-2.0, 2.0));

    std::vector<float> ds = base, dv = base;
    scalar_->axpy(ds.data(), alpha, x.data(), n);
    avx2_->axpy(dv.data(), alpha, x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bits_equal_f(ds[i], dv[i])) << "axpy n=" << n << " i=" << i;
    }

    ds = base;
    dv = base;
    scalar_->scale(ds.data(), alpha, n);
    avx2_->scale(dv.data(), alpha, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bits_equal_f(ds[i], dv[i])) << "scale n=" << n << " i=" << i;
    }

    ds.assign(n, -1.0f);
    dv.assign(n, -1.0f);
    scalar_->fill(ds.data(), alpha, n);
    avx2_->fill(dv.data(), alpha, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bits_equal_f(ds[i], dv[i])) << "fill n=" << n << " i=" << i;
    }

    // ReLU over the values whose handling differs: NaNs of either sign and
    // with payloads, ±0, ±Inf and denormals of either sign, cycled through
    // every lane position. Its backward gets the same values as gradient,
    // and pass bytes other than 0 and 1.
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              std::bit_cast<float>(0x7FC01234u),
                              0.0f,
                              -0.0f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              -1e-40f};
    std::vector<float> r = x;
    for (std::size_t i = 0; i < n; i += 3) {
      r[i] = specials[(i / 3) % std::size(specials)];
    }
    std::vector<std::uint8_t> ps(n, 7), pv(n, 9);
    scalar_->relu_forward(r.data(), ds.data(), ps.data(), n);
    avx2_->relu_forward(r.data(), dv.data(), pv.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bits_equal_f(ds[i], dv[i])) << "relu_forward n=" << n << " i=" << i;
      ASSERT_EQ(ps[i], pv[i]) << "relu_forward pass n=" << n << " i=" << i;
    }
    for (std::size_t i = 0; i < n; i += 5) ps[i] = static_cast<std::uint8_t>(i);
    scalar_->relu_backward(r.data(), ps.data(), ds.data(), n);
    avx2_->relu_backward(r.data(), ps.data(), dv.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bits_equal_f(ds[i], dv[i])) << "relu_backward n=" << n << " i=" << i;
    }
  }
}

TEST_F(KernelEquivalence, ConvForwardImageBitIdenticalAtLeNetShapes) {
  // LeNet's convs, k5 p2 at stride 1: conv1 1→6 on 28×28 (OW mod 8 = 4),
  // conv2 6→16 on 14×14 (OW mod 8 = 6), inputs with ReLU-like zeros.
  fifl::util::Rng rng(0xF1F11007);
  const struct {
    std::size_t c, oc, hw;
  } shapes[] = {{1, 6, 28}, {6, 16, 14}};
  constexpr std::size_t k = 5, pad = 2;
  for (const auto& s : shapes) {
    const std::size_t side = s.hw + 2 * pad, patch = s.c * k * k;
    // The zero-bordered image, then the slack the kernel may read.
    std::vector<float> padded(s.c * side * side + kernels::kFloatLanes, 0.0f);
    const std::vector<float> v = random_vec(rng, s.c * s.hw * s.hw);
    for (std::size_t ch = 0; ch < s.c; ++ch) {
      for (std::size_t y = 0; y < s.hw; ++y) {
        for (std::size_t x = 0; x < s.hw; ++x) {
          const float e = v[(ch * s.hw + y) * s.hw + x];
          padded[(ch * side + y + pad) * side + x + pad] = e < 0.0f ? 0.0f : e;
        }
      }
    }
    std::vector<std::size_t> taps(patch);
    kernels::conv_taps(s.c, k, side, side, taps.data());
    const std::vector<float> w = random_vec(rng, s.oc * patch);
    const std::vector<float> b = random_vec(rng, s.oc);
    const kernels::ConvImageShape shape{.padded_w = side,
                                        .stride = 1,
                                        .patch = patch,
                                        .out_channels = s.oc,
                                        .out_h = s.hw,
                                        .out_w = s.hw};
    std::vector<float> ys(s.oc * s.hw * s.hw, -1.0f), yv = ys;
    scalar_->conv_forward_image(padded.data(), taps.data(), w.data(), b.data(),
                                ys.data(), shape);
    avx2_->conv_forward_image(padded.data(), taps.data(), w.data(), b.data(),
                              yv.data(), shape);
    for (std::size_t i = 0; i < ys.size(); ++i) {
      ASSERT_TRUE(bits_equal_f(ys[i], yv[i]))
          << "conv_forward_image c" << s.c << " oc" << s.oc << " @" << i;
    }
  }
}

TEST_F(KernelEquivalence, MatmulKernelsBitIdentical) {
  fifl::util::Rng rng(0xF1F11003);
  // Shapes with ragged k and n so lane tails and the register-blocked
  // j-loop remainders are all exercised.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 1, 1}, {3, 7, 5}, {4, 8, 8}, {5, 9, 17}, {2, 33, 31}};
  for (const auto& s : shapes) {
    const std::vector<float> a = random_vec(rng, s.m * s.k);
    const std::vector<float> b = random_vec(rng, s.k * s.n);
    const std::vector<float> bt = random_vec(rng, s.n * s.k);
    const std::vector<float> at = random_vec(rng, s.k * s.m);

    std::vector<float> cs(s.m * s.n, 0.0f), cv(s.m * s.n, 0.0f);
    scalar_->matmul_rows(a.data(), b.data(), cs.data(), 0, s.m, s.k, s.n);
    avx2_->matmul_rows(a.data(), b.data(), cv.data(), 0, s.m, s.k, s.n);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      ASSERT_TRUE(bits_equal_f(cs[i], cv[i]))
          << "matmul_rows " << s.m << "x" << s.k << "x" << s.n << " @" << i;
    }

    cs.assign(s.m * s.n, 0.0f);
    cv.assign(s.m * s.n, 0.0f);
    scalar_->matmul_nt_rows(a.data(), bt.data(), cs.data(), 0, s.m, s.k, s.n);
    avx2_->matmul_nt_rows(a.data(), bt.data(), cv.data(), 0, s.m, s.k, s.n);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      ASSERT_TRUE(bits_equal_f(cs[i], cv[i]))
          << "matmul_nt_rows " << s.m << "x" << s.k << "x" << s.n << " @" << i;
    }

    cs.assign(s.m * s.n, 0.0f);
    cv.assign(s.m * s.n, 0.0f);
    scalar_->matmul_tn_rows(at.data(), b.data(), cs.data(), 0, s.m, s.k, s.m,
                            s.n);
    avx2_->matmul_tn_rows(at.data(), b.data(), cv.data(), 0, s.m, s.k, s.m,
                          s.n);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      ASSERT_TRUE(bits_equal_f(cs[i], cv[i]))
          << "matmul_tn_rows " << s.m << "x" << s.k << "x" << s.n << " @" << i;
    }
  }
}

TEST_F(KernelEquivalence, MatmulKernelsBitIdenticalAtTrainingShapes) {
  // LeNet's products: conv patches of 25 / 150 against 6 / 16 channels,
  // Linear widths 84 / 784 — every register-block remainder of the AVX2
  // kernels, with ReLU-like zeros in A.
  fifl::util::Rng rng(0xF1F11005);
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{32, 25, 6}, {20, 150, 16}, {32, 784, 84}, {7, 84, 10},
                {6, 196, 150}, {16, 33, 25}, {3, 9, 5}};
  for (const auto& s : shapes) {
    std::vector<float> a = random_vec(rng, s.m * s.k);
    for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;
    const std::vector<float> b = random_vec(rng, s.k * s.n);
    const std::vector<float> bt = random_vec(rng, s.n * s.k);
    const std::vector<float> base = random_vec(rng, s.m * s.n);
    std::vector<float> cs = base, cv = base;
    scalar_->matmul_rows(a.data(), b.data(), cs.data(), 0, s.m, s.k, s.n);
    avx2_->matmul_rows(a.data(), b.data(), cv.data(), 0, s.m, s.k, s.n);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      ASSERT_TRUE(bits_equal_f(cs[i], cv[i]))
          << "matmul_rows " << s.m << "x" << s.k << "x" << s.n << " @" << i;
    }
    scalar_->matmul_nt_rows(a.data(), bt.data(), cs.data(), 0, s.m, s.k, s.n);
    avx2_->matmul_nt_rows(a.data(), bt.data(), cv.data(), 0, s.m, s.k, s.n);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      ASSERT_TRUE(bits_equal_f(cs[i], cv[i]))
          << "matmul_nt_rows " << s.m << "x" << s.k << "x" << s.n << " @" << i;
    }
  }
}

// The matmul_tn_rows contract: kk runs outermost, yet every C element must
// equal the plain i-outer, kk-ascending axpy loop bit for bit — on both
// backends, at awkward row counts, patch lengths up to past 8k, and with
// zeros in A (skipped, so a NaN in the matching B row must not leak in).
TEST(MatmulTnRows, MatchesIOuterReferenceOnEveryBackend) {
  fifl::util::Rng rng(0xF1F11006);
  std::vector<const kernels::KernelTable*> backends = {&kernels::scalar_table()};
  if (kernels::avx2_table() != nullptr && kernels::cpu_supports_avx2()) {
    backends.push_back(kernels::avx2_table());
  }
  for (const std::size_t m : {1, 6, 16, 84}) {
    for (const std::size_t k : {25, 150, 8195}) {
      for (const std::size_t n : {25, 150}) {
        std::vector<float> a = random_vec(rng, k * m);  // A is k×m
        std::vector<float> b = random_vec(rng, k * n);
        for (std::size_t kk = 0; kk < k; kk += 3) {
          for (std::size_t i = 0; i < m; ++i) a[kk * m + i] = 0.0f;
          b[kk * n + kk % n] = std::numeric_limits<float>::quiet_NaN();
        }
        for (std::size_t i = 1; i < a.size(); i += 7) a[i] = 0.0f;
        const std::vector<float> base = random_vec(rng, m * n);
        // Reference: i outer, kk ascending, zero skip — the loop order the
        // kernel had before kk moved outermost.
        std::vector<float> ref = base;
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = a[kk * m + i];
            if (av == 0.0f) continue;
            for (std::size_t j = 0; j < n; ++j) ref[i * n + j] += av * b[kk * n + j];
          }
        }
        for (const kernels::KernelTable* kt : backends) {
          std::vector<float> c = base;
          // Two row ranges, as callers split C across threads.
          const std::size_t mid = m / 2;
          kt->matmul_tn_rows(a.data(), b.data(), c.data(), 0, mid, k, m, n);
          kt->matmul_tn_rows(a.data(), b.data(), c.data(), mid, m, k, m, n);
          for (std::size_t i = 0; i < c.size(); ++i) {
            ASSERT_TRUE(bits_equal_f(c[i], ref[i]))
                << kt->name << " m=" << m << " k=" << k << " n=" << n << " @" << i;
          }
        }
      }
    }
  }
}

TEST_F(KernelEquivalence, ZeroSkipPreservedInAxpyFormMatmuls) {
  // The `a == 0.0f` skip must exist in BOTH backends: skipping in one and
  // multiplying in the other would still be value-identical for finite B,
  // but diverges when B holds NaN/inf (0 * inf = NaN). Plant exactly that.
  const std::size_t m = 2, k = 3, n = 9;
  std::vector<float> a(m * k, 0.0f);
  a[0] = 1.0f;  // row 0 uses only b row 0
  std::vector<float> b(k * n, 1.0f);
  b[1 * n + 4] = std::numeric_limits<float>::infinity();  // hit only if kk=1 not skipped
  std::vector<float> cs(m * n, 0.0f), cv(m * n, 0.0f);
  scalar_->matmul_rows(a.data(), b.data(), cs.data(), 0, m, k, n);
  avx2_->matmul_rows(a.data(), b.data(), cv.data(), 0, m, k, n);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    ASSERT_TRUE(bits_equal_f(cs[i], cv[i])) << "@" << i;
    ASSERT_TRUE(std::isfinite(cs[i])) << "@" << i;
  }
}

TEST_F(KernelEquivalence, HasNonfinitePropagatesNanAndInf) {
  fifl::util::Rng rng(0xF1F11004);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (const std::size_t n : kSizes) {
    if (n == 0) {
      EXPECT_FALSE(scalar_->has_nonfinite(nullptr, 0));
      EXPECT_FALSE(avx2_->has_nonfinite(nullptr, 0));
      continue;
    }
    std::vector<float> v = random_vec(rng, n);
    EXPECT_FALSE(scalar_->has_nonfinite(v.data(), n)) << "n=" << n;
    EXPECT_FALSE(avx2_->has_nonfinite(v.data(), n)) << "n=" << n;
    for (const float s : specials) {
      // Plant in a lane-aligned position, the tail, and the front.
      for (const std::size_t pos :
           {std::size_t{0}, n / 2, n - 1}) {
        std::vector<float> w = v;
        w[pos] = s;
        EXPECT_TRUE(scalar_->has_nonfinite(w.data(), n))
            << "n=" << n << " pos=" << pos;
        EXPECT_TRUE(avx2_->has_nonfinite(w.data(), n))
            << "n=" << n << " pos=" << pos;
      }
    }
  }
}

TEST(KernelDispatch, TableFallsBackToScalar) {
  const kernels::KernelTable& t = kernels::table(kernels::Isa::kScalar);
  EXPECT_STREQ(t.name, "scalar");
  // kAvx2 resolves to the AVX2 table when built in, scalar otherwise —
  // never a null deref.
  const kernels::KernelTable& t2 = kernels::table(kernels::Isa::kAvx2);
  if (kernels::avx2_table() != nullptr) {
    EXPECT_STREQ(t2.name, "avx2");
  } else {
    EXPECT_STREQ(t2.name, "scalar");
  }
}

TEST(KernelDispatch, ActiveIsaIsStableAndNamed) {
  const kernels::Isa isa = kernels::active_isa();
  EXPECT_EQ(isa, kernels::active_isa());  // resolved once, stable
  EXPECT_STREQ(kernels::active().name, kernels::isa_name(isa));
  // When FIFL_KERNEL_ISA=scalar is exported (the ctest env-override leg
  // kernels_scalar_env and the sanitizer fallback lane), dispatch must
  // honour it even on AVX2 hardware.
  const char* env = std::getenv("FIFL_KERNEL_ISA");
  if (env != nullptr && std::string(env) == "scalar") {
    EXPECT_EQ(isa, kernels::Isa::kScalar);
  }
}

}  // namespace
