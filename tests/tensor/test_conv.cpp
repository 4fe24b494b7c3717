#include "tensor/conv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fifl::tensor {
namespace {

// Bitwise tensor equality: same shape, same bits in every element
// (signed zeros and NaN payloads included).
::testing::AssertionResult bits_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << a.shape_string() << " vs " << b.shape_string();
  }
  for (std::size_t i = 0; i < a.numel(); ++i) {
    std::uint32_t x = 0, y = 0;
    std::memcpy(&x, a.data() + i, sizeof x);
    std::memcpy(&y, b.data() + i, sizeof y);
    if (x != y) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// The definitional conv: whole-batch im2col, one big matmul per product,
// col2im. conv2d_forward/backward must reproduce these bits exactly.
struct ReferenceConv {
  Tensor out, grad_input, grad_weight, grad_bias;
};

ReferenceConv reference_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                             const Tensor& gy, const ConvSpec& s) {
  const std::size_t n = x.dim(0), h = x.dim(2), wd = x.dim(3);
  const std::size_t oc = s.out_channels, oh = s.out_dim(h), ow = s.out_dim(wd);
  const std::size_t patch = s.in_channels * s.kernel * s.kernel;
  const Tensor cols = im2col(x, s);
  Tensor wmat = w.clone();
  wmat.reshape({oc, patch});
  ReferenceConv ref;
  const Tensor prod = matmul_nt(cols, wmat);
  ref.out = Tensor({n, oc, oh, ow});
  Tensor gmat({n * oh * ow, oc});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < oc; ++ch) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::size_t row = (img * oh + oy) * ow + ox;
          ref.out(img, ch, oy, ox) = prod(row, ch) + b[ch];
          gmat(row, ch) = gy(img, ch, oy, ox);
        }
      }
    }
  }
  ref.grad_weight = matmul_tn(gmat, cols);
  ref.grad_weight.reshape(w.shape());
  ref.grad_bias = Tensor({oc});
  for (std::size_t row = 0; row < n * oh * ow; ++row) {
    for (std::size_t ch = 0; ch < oc; ++ch) ref.grad_bias[ch] += gmat(row, ch);
  }
  ref.grad_input = col2im(matmul(gmat, wmat), s, n, h, wd);
  return ref;
}

// Gradient with ReLU-like zeros, so the kernels' zero skip is exercised.
Tensor sparse_gaussian(Shape shape, util::Rng& rng) {
  Tensor t = Tensor::gaussian(std::move(shape), rng);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (rng.uniform(0.0, 1.0) < 0.5) t[i] = 0.0f;
  }
  return t;
}

// Naive direct convolution reference.
Tensor conv_reference(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ConvSpec& spec) {
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  Tensor out({n, spec.out_channels, oh, ow});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double acc = static_cast<double>(bias[oc]);
          for (std::size_t ic = 0; ic < c; ++ic) {
            for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
              for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                const auto iy = static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                                static_cast<std::ptrdiff_t>(spec.padding);
                const auto ix = static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                                static_cast<std::ptrdiff_t>(spec.padding);
                if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(h) ||
                    ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                acc += static_cast<double>(
                           input(img, ic, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix))) *
                       static_cast<double>(weight(oc, ic, ky, kx));
              }
            }
          }
          out(img, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

TEST(Conv, OutDimFormula) {
  ConvSpec s{.in_channels = 1, .out_channels = 1, .kernel = 3, .stride = 1, .padding = 1};
  EXPECT_EQ(s.out_dim(28), 28u);
  s.padding = 0;
  EXPECT_EQ(s.out_dim(28), 26u);
  s.stride = 2;
  EXPECT_EQ(s.out_dim(28), 13u);
}

TEST(Conv, Im2colIdentityKernel1x1) {
  util::Rng rng(1);
  Tensor x = Tensor::gaussian({2, 3, 4, 4}, rng);
  ConvSpec s{.in_channels = 3, .out_channels = 1, .kernel = 1, .stride = 1, .padding = 0};
  Tensor cols = im2col(x, s);
  EXPECT_EQ(cols.dim(0), 2u * 4 * 4);
  EXPECT_EQ(cols.dim(1), 3u);
  // Row (img=0, y=1, x=2) holds x[0, :, 1, 2].
  for (std::size_t ch = 0; ch < 3; ++ch) {
    EXPECT_FLOAT_EQ(cols(1 * 4 + 2, ch), x(0, ch, 1, 2));
  }
}

TEST(Conv, ForwardMatchesReferenceNoPadding) {
  util::Rng rng(2);
  ConvSpec s{.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1, .padding = 0};
  Tensor x = Tensor::gaussian({2, 2, 6, 6}, rng);
  Tensor w = Tensor::gaussian({3, 2, 3, 3}, rng);
  Tensor b = Tensor::gaussian({3}, rng);
  EXPECT_TRUE(conv2d_forward(x, w, b, s).allclose(conv_reference(x, w, b, s), 1e-4f));
}

TEST(Conv, ForwardMatchesReferenceWithPaddingAndStride) {
  util::Rng rng(3);
  ConvSpec s{.in_channels = 1, .out_channels = 2, .kernel = 5, .stride = 2, .padding = 2};
  Tensor x = Tensor::gaussian({1, 1, 9, 9}, rng);
  Tensor w = Tensor::gaussian({2, 1, 5, 5}, rng);
  Tensor b = Tensor::gaussian({2}, rng);
  EXPECT_TRUE(conv2d_forward(x, w, b, s).allclose(conv_reference(x, w, b, s), 1e-4f));
}

TEST(Conv, Col2imInvertsIm2colForDisjointPatches) {
  // stride == kernel, no padding: patches are disjoint, so col2im(im2col(x))
  // reproduces x exactly.
  util::Rng rng(4);
  ConvSpec s{.in_channels = 2, .out_channels = 1, .kernel = 2, .stride = 2, .padding = 0};
  Tensor x = Tensor::gaussian({2, 2, 4, 4}, rng);
  Tensor cols = im2col(x, s);
  Tensor back = col2im(cols, s, 2, 4, 4);
  EXPECT_TRUE(back.allclose(x, 1e-5f));
}

// Central-difference gradient check of the full conv backward pass.
TEST(Conv, BackwardNumericalGradcheck) {
  util::Rng rng(5);
  ConvSpec s{.in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 1, .padding = 1};
  Tensor x = Tensor::gaussian({1, 2, 5, 5}, rng, 0.0f, 0.5f);
  Tensor w = Tensor::gaussian({2, 2, 3, 3}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::gaussian({2}, rng, 0.0f, 0.5f);

  // Scalar objective: L = sum(conv(x)) weighted by fixed coefficients.
  Tensor coeff = Tensor::gaussian({1, 2, 5, 5}, rng);
  auto objective = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor y = conv2d_forward(xx, ww, bb, s);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y[i]) * static_cast<double>(coeff[i]);
    }
    return acc;
  };

  const auto grads = conv2d_backward(x, w, coeff, s);
  const float eps = 1e-2f;

  for (std::size_t i = 0; i < x.numel(); i += 7) {
    Tensor xp = x.clone(), xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric =
        (objective(xp, w, b) - objective(xm, w, b)) / (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(grads.grad_input[i], numeric, 5e-2)
        << "grad_input mismatch at " << i;
  }
  for (std::size_t i = 0; i < w.numel(); i += 5) {
    Tensor wp = w.clone(), wm = w.clone();
    wp[i] += eps;
    wm[i] -= eps;
    const double numeric =
        (objective(x, wp, b) - objective(x, wm, b)) / (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(grads.grad_weight[i], numeric, 5e-2)
        << "grad_weight mismatch at " << i;
  }
  for (std::size_t i = 0; i < b.numel(); ++i) {
    Tensor bp = b.clone(), bm = b.clone();
    bp[i] += eps;
    bm[i] -= eps;
    const double numeric =
        (objective(x, w, bp) - objective(x, w, bm)) / (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(grads.grad_bias[i], numeric, 5e-2)
        << "grad_bias mismatch at " << i;
  }
}

// LeNet's two convs (k5, p2), a stride-2 unpadded shape with a ragged
// patch length, output widths around the 8-pixel register of the AVX2
// forward (OW mod 8 = 0, 1, 7, and OW < 8), patches shorter than, and
// exactly, one 8-lane block, MiniResNet's k3 s1 p1, and one case with
// non-finite values and -0 planted in the input and the weights.
struct ConvCase {
  const char* name;
  ConvSpec spec;
  Shape input;
  bool specials = false;
};

// Plants NaN, ±Inf and -0 in x and -0, NaN and +Inf in w (one output
// channel each, so the other channels stay finite). The NaN is x86's
// default NaN, the one pattern its invalid operations (Inf·0, Inf − Inf)
// produce: a NaN's payload follows whichever operand the compiler places
// first, which the order contract does not fix, so a second pattern could
// differ between paths whose every operation agrees.
void plant_specials(Tensor& x, Tensor& w) {
  const float nan = -std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::size_t n = x.numel();
  x[3] = nan;
  x[n / 3] = inf;
  x[n / 2] = -inf;
  x[2 * n / 3] = -0.0f;
  x[n - 1] = -0.0f;
  const std::size_t per_oc = w.numel() / w.dim(0);
  w[0] = -0.0f;
  w[per_oc + 1] = nan;
  w[2 * per_oc + per_oc / 2] = inf;
}

// Prints the case name, so the ctest names gtest_discover_tests derives
// from the listing read Shapes/ConvBitwise.MatchesIm2colMatmulComposition/
// <name> rather than the parameter's raw bytes.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

class ConvBitwise : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBitwise, MatchesIm2colMatmulComposition) {
  const ConvSpec& s = GetParam().spec;
  const Shape& in_shape = GetParam().input;
  util::Rng rng(0xC0DE + s.in_channels * 31 + s.stride);
  Tensor x = Tensor::gaussian(in_shape, rng);
  Tensor w =
      Tensor::gaussian({s.out_channels, s.in_channels, s.kernel, s.kernel}, rng);
  const Tensor b = Tensor::gaussian({s.out_channels}, rng);
  if (GetParam().specials) plant_specials(x, w);
  const Tensor gy = sparse_gaussian(
      {in_shape[0], s.out_channels, s.out_dim(in_shape[2]), s.out_dim(in_shape[3])},
      rng);
  const ReferenceConv ref = reference_conv(x, w, b, gy, s);

  EXPECT_TRUE(bits_equal(conv2d_forward(x, w, b, s), ref.out));
  const Conv2dGrads full = conv2d_backward(x, w, gy, s);
  EXPECT_TRUE(bits_equal(full.grad_input, ref.grad_input));
  EXPECT_TRUE(bits_equal(full.grad_weight, ref.grad_weight));
  EXPECT_TRUE(bits_equal(full.grad_bias, ref.grad_bias));

  // The first-layer path skips the input gradient and nothing else.
  const Conv2dGrads params = conv2d_backward(x, w, gy, s, /*want_input_grad=*/false);
  EXPECT_TRUE(params.grad_input.empty());
  EXPECT_TRUE(bits_equal(params.grad_weight, ref.grad_weight));
  EXPECT_TRUE(bits_equal(params.grad_bias, ref.grad_bias));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvBitwise,
    ::testing::Values(
        ConvCase{"c1_oc6_k5_s1_p2",
                 ConvSpec{.in_channels = 1, .out_channels = 6, .kernel = 5,
                          .stride = 1, .padding = 2},
                 Shape{4, 1, 28, 28}},
        ConvCase{"c6_oc16_k5_s1_p2",
                 ConvSpec{.in_channels = 6, .out_channels = 16, .kernel = 5,
                          .stride = 1, .padding = 2},
                 Shape{4, 6, 14, 14}},
        ConvCase{"c3_oc5_k3_s2_p0",
                 ConvSpec{.in_channels = 3, .out_channels = 5, .kernel = 3,
                          .stride = 2, .padding = 0},
                 Shape{3, 3, 11, 9}},
        ConvCase{"c2_oc3_k3_s1_p0_ow17",
                 ConvSpec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                          .stride = 1, .padding = 0},
                 Shape{2, 2, 7, 19}},
        ConvCase{"c2_oc4_k3_s1_p1_ow15",
                 ConvSpec{.in_channels = 2, .out_channels = 4, .kernel = 3,
                          .stride = 1, .padding = 1},
                 Shape{2, 2, 6, 15}},
        ConvCase{"c3_oc2_k3_s1_p1_ow7",
                 ConvSpec{.in_channels = 3, .out_channels = 2, .kernel = 3,
                          .stride = 1, .padding = 1},
                 Shape{2, 3, 8, 7}},
        ConvCase{"c3_oc2_k5_s1_p0_ow5",
                 ConvSpec{.in_channels = 3, .out_channels = 2, .kernel = 5,
                          .stride = 1, .padding = 0},
                 Shape{2, 3, 9, 9}},
        ConvCase{"c1_oc3_k1_s1_p0",
                 ConvSpec{.in_channels = 1, .out_channels = 3, .kernel = 1,
                          .stride = 1, .padding = 0},
                 Shape{2, 1, 5, 11}},
        ConvCase{"c1_oc4_k2_s1_p0",
                 ConvSpec{.in_channels = 1, .out_channels = 4, .kernel = 2,
                          .stride = 1, .padding = 0},
                 Shape{2, 1, 6, 10}},
        ConvCase{"c2_oc5_k2_s1_p1_ow8",
                 ConvSpec{.in_channels = 2, .out_channels = 5, .kernel = 2,
                          .stride = 1, .padding = 1},
                 Shape{2, 2, 7, 7}},
        ConvCase{"c8_oc16_k3_s1_p1",
                 ConvSpec{.in_channels = 8, .out_channels = 16, .kernel = 3,
                          .stride = 1, .padding = 1},
                 Shape{2, 8, 14, 14}},
        ConvCase{"specials_c2_oc4_k3_s1_p1",
                 ConvSpec{.in_channels = 2, .out_channels = 4, .kernel = 3,
                          .stride = 1, .padding = 1},
                 Shape{2, 2, 9, 9}, /*specials=*/true}));

TEST(Conv, BackwardRejectsMismatchedGradOutput) {
  util::Rng rng(6);
  ConvSpec s{.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1, .padding = 1};
  const Tensor x = Tensor::gaussian({2, 2, 5, 5}, rng);
  const Tensor w = Tensor::gaussian({3, 2, 3, 3}, rng);
  // One output row short of (N, OC, OH, OW): every read past it would be
  // out of bounds.
  const Tensor gy = Tensor::gaussian({2, 3, 4, 5}, rng);
  EXPECT_THROW((void)conv2d_backward(x, w, gy, s), std::invalid_argument);
}

TEST(Conv, BackwardRejectsInputChannelMismatch) {
  util::Rng rng(7);
  ConvSpec s{.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1, .padding = 1};
  const Tensor x = Tensor::gaussian({2, 3, 5, 5}, rng);  // 3 channels, spec says 2
  const Tensor w = Tensor::gaussian({3, 2, 3, 3}, rng);
  const Tensor gy = Tensor::gaussian({2, 3, 5, 5}, rng);
  try {
    (void)conv2d_backward(x, w, gy, s);
    FAIL() << "conv2d_backward accepted a 3-channel input for a 2-channel spec";
  } catch (const std::invalid_argument& e) {
    // Rejected at conv2d_backward's own boundary, naming both counts.
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("conv2d_backward", 0), 0u) << what;
    EXPECT_NE(what.find('3'), std::string::npos) << what;
    EXPECT_NE(what.find('2'), std::string::npos) << what;
  }
}

TEST(Pool, MaxPoolBackwardRejectsOutOfRangeArgmax) {
  const Tensor gy({1, 1, 1, 2}, std::vector<float>{1.0f, 2.0f});
  // Input (1,1,2,4) has 8 elements; index 8 is one past the end.
  const std::vector<std::uint32_t> argmax = {1, 8};
  EXPECT_THROW((void)maxpool2d_backward(gy, argmax, Shape{1, 1, 2, 4}),
               std::invalid_argument);
}

TEST(Pool, MaxPoolPicksWindowMaxima) {
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  std::vector<std::uint32_t> argmax;
  Tensor y = maxpool2d_forward(x, 2, argmax);
  EXPECT_EQ(y.dim(2), 2u);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 7.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 1, 0), 13.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 1, 1), 15.0f);
}

TEST(Pool, MaxPoolBackwardRoutesToArgmax) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 4});
  std::vector<std::uint32_t> argmax;
  Tensor y = maxpool2d_forward(x, 2, argmax);
  Tensor gy({1, 1, 1, 1}, std::vector<float>{2.5f});
  Tensor gx = maxpool2d_backward(gy, argmax, x.shape());
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.5f);  // index of the 9
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(Pool, MaxPoolRejectsNonDividingWindow) {
  Tensor x({1, 1, 5, 5});
  std::vector<std::uint32_t> argmax;
  EXPECT_THROW((void)maxpool2d_forward(x, 2, argmax), std::invalid_argument);
}

TEST(Pool, GlobalAvgPoolForwardAndBackward) {
  Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = global_avgpool_forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y(0, 1), 25.0f);
  Tensor gy({1, 2}, std::vector<float>{4.0f, 8.0f});
  Tensor gx = global_avgpool_backward(gy, x.shape());
  EXPECT_FLOAT_EQ(gx(0, 0, 0, 0), 1.0f);   // 4 / 4 pixels
  EXPECT_FLOAT_EQ(gx(0, 1, 1, 1), 2.0f);   // 8 / 4 pixels
}

}  // namespace
}  // namespace fifl::tensor
