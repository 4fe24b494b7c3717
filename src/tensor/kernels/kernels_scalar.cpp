// Scalar reference backend.
//
// This is not "the slow path with any loop shape": it implements the exact
// lane layout the AVX2 backend uses (16 double lanes for reductions /
// 8 float lanes for matmul_nt and the conv forward, lane l ← elements ≡ l
// mod the lane count, blocks ascending, fixed collapse trees from
// lane_reduce.hpp, serial tail) so the two backends are bit-identical by
// construction. Compiled with -ffp-contract=off so GCC cannot fuse the
// separate mul/add roundings into FMA; the compiler is still free to
// auto-vectorise the lane loops — the per-lane operation sequence, and
// therefore every rounding, is unchanged.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels/kernels.hpp"
#include "tensor/kernels/lane_reduce.hpp"

namespace fifl::tensor::kernels {
namespace {

constexpr std::size_t kLanes = kFloatLanes;
constexpr std::size_t kDLanes = kDoubleLanes;

double dot_scalar(const float* a, const float* b, std::size_t n) {
  const std::size_t main = n - n % kDLanes;
  double lane[kDLanes] = {};
  // order: lane l accumulates a[i+l]*b[i+l] per 16-block, blocks ascending
  // — one convert/mul/add step per block, mirroring the AVX2 path.
  for (std::size_t i = 0; i < main; i += kDLanes) {
    for (std::size_t l = 0; l < kDLanes; ++l) {
      lane[l] += static_cast<double>(a[i + l]) * static_cast<double>(b[i + l]);
    }
  }
  double acc = reduce_lanes16(lane);
  // order: tail elements ascending, appended after the lane tree.
  for (std::size_t i = main; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double squared_norm_scalar(const float* x, std::size_t n) {
  // Same per-element operation and reduction shape as dot(x, x).
  return dot_scalar(x, x, n);
}

double squared_distance_scalar(const float* a, const float* b,
                               std::size_t n) {
  const std::size_t main = n - n % kDLanes;
  double lane[kDLanes] = {};
  // order: lane l accumulates (a[i+l]-b[i+l])² per 16-block, blocks
  // ascending; collapse via the shared lane tree.
  for (std::size_t i = 0; i < main; i += kDLanes) {
    for (std::size_t l = 0; l < kDLanes; ++l) {
      const double d =
          static_cast<double>(a[i + l]) - static_cast<double>(b[i + l]);
      lane[l] += d * d;
    }
  }
  double acc = reduce_lanes16(lane);
  // order: tail elements ascending, appended after the lane tree.
  for (std::size_t i = main; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

double sum_scalar(const float* x, std::size_t n) {
  const std::size_t main = n - n % kDLanes;
  double lane[kDLanes] = {};
  // order: lane l accumulates x[i+l] per 16-block, blocks ascending;
  // collapse via the shared lane tree.
  for (std::size_t i = 0; i < main; i += kDLanes) {
    for (std::size_t l = 0; l < kDLanes; ++l) {
      lane[l] += static_cast<double>(x[i + l]);
    }
  }
  double acc = reduce_lanes16(lane);
  // order: tail elements ascending, appended after the lane tree.
  for (std::size_t i = main; i < n; ++i) acc += static_cast<double>(x[i]);
  return acc;
}

void axpy_scalar(float* dst, float alpha, const float* x, std::size_t n) {
  // Elementwise: one mul + one add rounding per element, no reduction.
  for (std::size_t i = 0; i < n; ++i) dst[i] += alpha * x[i];
}

void scale_scalar(float* dst, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] *= alpha;
}

void fill_scalar(float* dst, float value, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = value;
}

bool has_nonfinite_scalar(const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return true;
  }
  return false;
}

/// `x` where `keep`, else +0 — a bit mask, not a branch, because which
/// activations are negative is data the predictor cannot learn.
inline float keep_or_zero(float x, bool keep) noexcept {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) &
                              (0u - static_cast<std::uint32_t>(keep)));
}

void relu_forward_scalar(const float* x, float* y, std::uint8_t* pass,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = keep_or_zero(v, !(v < 0.0f));  // NaN and -0 pass unchanged
    pass[i] = static_cast<std::uint8_t>(!(v <= 0.0f));
  }
}

void relu_backward_scalar(const float* g, const std::uint8_t* pass, float* gx,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) gx[i] = keep_or_zero(g[i], pass[i] != 0);
}

void matmul_rows_scalar(const float* a, const float* b, float* c,
                        std::size_t i0, std::size_t i1, std::size_t k,
                        std::size_t n) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      // order: per output j, contributions kk ascending (axpy-form; one
      // mul + add rounding per contribution, identical in both backends).
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_nt_rows_scalar(const float* a, const float* b, float* c,
                           std::size_t i0, std::size_t i1, std::size_t k,
                           std::size_t n) {
  const std::size_t main = k - k % kLanes;
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float lane[kLanes] = {};
      // order: float lane l accumulates kk ≡ l (mod 8), blocks ascending;
      // collapse (s0+s2)+(s1+s3) per lane_reduce.hpp.
      for (std::size_t kk = 0; kk < main; kk += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          lane[l] += arow[kk + l] * brow[kk + l];
        }
      }
      float acc = reduce_lanes8f(lane);
      // order: tail kk ascending, appended after the lane tree.
      for (std::size_t kk = main; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

void matmul_tn_rows_scalar(const float* a, const float* b, float* c,
                           std::size_t i0, std::size_t i1, std::size_t k,
                           std::size_t m, std::size_t n) {
  // kk outermost: A row kk and B row kk are each read once per call while
  // the C rows [i0, i1) stay cache-resident. Each C element still receives
  // its contributions kk ascending, so this is the i-outer loop's result.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (std::size_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      // order: per output (i, j), contributions kk ascending (axpy-form).
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// conv_forward_image at a stride other than 1, which only tests use: each
/// output pixel reads its taps through the table.
void conv_forward_strided_scalar(const float* padded, const std::size_t* taps,
                                 const float* weight, const float* bias,
                                 float* out, const ConvImageShape& s) {
  const std::size_t main = s.patch - s.patch % kLanes;
  for (std::size_t o = 0; o < s.out_channels; ++o) {
    const float* wrow = weight + o * s.patch;
    float* orow = out + o * s.out_h * s.out_w;
    for (std::size_t oy = 0; oy < s.out_h; ++oy) {
      for (std::size_t ox = 0; ox < s.out_w; ++ox) {
        const float* x = padded + (oy * s.padded_w + ox) * s.stride;
        float lane[kLanes] = {};
        // order: float lane l accumulates taps kk ≡ l (mod 8), blocks
        // ascending; collapse (s0+s2)+(s1+s3) — matmul_nt_rows' order with
        // the pixel's im2col row read in place.
        for (std::size_t kk = 0; kk < main; kk += kLanes) {
          for (std::size_t l = 0; l < kLanes; ++l) {
            lane[l] += x[taps[kk + l]] * wrow[kk + l];
          }
        }
        float acc = reduce_lanes8f(lane);
        // order: tail taps ascending, appended after the lane tree.
        for (std::size_t kk = main; kk < s.patch; ++kk) {
          acc += x[taps[kk]] * wrow[kk];
        }
        orow[oy * s.out_w + ox] = acc + bias[o];
      }
    }
  }
}

/// 8 adjacent output pixels of one row at stride 1, starting at `x`, for
/// two output channels (weight rows w0, w1): the AVX2 backend's layout in
/// plain loops. Index q of each array is pixel q, so every tap is one
/// contiguous 8-float read that feeds both channels, and the compiler may
/// vectorise the q loops without changing any pixel's order.
inline void conv_pixels8_x2_scalar(const float* x, const std::size_t* taps,
                                   const float* w0, const float* w1,
                                   std::size_t patch, float* out0,
                                   float* out1) noexcept {
  const std::size_t main = patch - patch % kLanes;
  float s0[4][kLanes], s1[4][kLanes];  // s[l] = lane[l] + lane[l+4]
  for (std::size_t l = 0; l < 4; ++l) {
    float a_lo[kLanes] = {}, a_hi[kLanes] = {};
    float b_lo[kLanes] = {}, b_hi[kLanes] = {};
    // order: float lanes l and l+4 accumulate taps kk ≡ l, l+4 (mod 8),
    // blocks ascending — each pixel's lanes of matmul_nt_rows_scalar.
    for (std::size_t kk = l; kk < main; kk += kLanes) {
      const float* xl = x + taps[kk];
      const float* xh = x + taps[kk + 4];
      for (std::size_t q = 0; q < kLanes; ++q) {
        a_lo[q] += xl[q] * w0[kk];
        a_hi[q] += xh[q] * w0[kk + 4];
        b_lo[q] += xl[q] * w1[kk];
        b_hi[q] += xh[q] * w1[kk + 4];
      }
    }
    for (std::size_t q = 0; q < kLanes; ++q) {
      s0[l][q] = a_lo[q] + a_hi[q];
      s1[l][q] = b_lo[q] + b_hi[q];
    }
  }
  for (std::size_t q = 0; q < kLanes; ++q) {
    // order: (s0 + s2) + (s1 + s3) — reduce_lanes8f per pixel.
    out0[q] = (s0[0][q] + s0[2][q]) + (s0[1][q] + s0[3][q]);
    out1[q] = (s1[0][q] + s1[2][q]) + (s1[1][q] + s1[3][q]);
  }
  // order: tail taps ascending, appended after the lane tree.
  for (std::size_t kk = main; kk < patch; ++kk) {
    const float* xv = x + taps[kk];
    for (std::size_t q = 0; q < kLanes; ++q) {
      out0[q] += xv[q] * w0[kk];
      out1[q] += xv[q] * w1[kk];
    }
  }
}

void conv_forward_image_scalar(const float* padded, const std::size_t* taps,
                               const float* weight, const float* bias,
                               float* out, const ConvImageShape& s) {
  if (s.stride != 1) {
    conv_forward_strided_scalar(padded, taps, weight, bias, out, s);
    return;
  }
  const std::size_t plane = s.out_h * s.out_w;
  for (std::size_t o0 = 0; o0 < s.out_channels; o0 += 2) {
    // An odd channel count computes its last channel twice.
    const std::size_t o1 = std::min(o0 + 1, s.out_channels - 1);
    const float* w0 = weight + o0 * s.patch;
    const float* w1 = weight + o1 * s.patch;
    for (std::size_t oy = 0; oy < s.out_h; ++oy) {
      const float* x = padded + oy * s.padded_w;
      float* row0 = out + o0 * plane + oy * s.out_w;
      float* row1 = out + o1 * plane + oy * s.out_w;
      for (std::size_t ox = 0; ox < s.out_w; ox += kLanes) {
        // A row's last group of 8 may run past its end: those pixels read
        // on into the next row or the buffer's slack and are not stored.
        float r0[kLanes], r1[kLanes];
        conv_pixels8_x2_scalar(x + ox, taps, w0, w1, s.patch, r0, r1);
        const std::size_t valid = std::min(kLanes, s.out_w - ox);
        for (std::size_t q = 0; q < valid; ++q) {
          // order: + bias after the whole dot.
          row0[ox + q] = r0[q] + bias[o0];
          row1[ox + q] = r1[q] + bias[o1];
        }
      }
    }
  }
}

constexpr KernelTable kScalarTable = {
    .name = "scalar",
    .dot = dot_scalar,
    .squared_norm = squared_norm_scalar,
    .squared_distance = squared_distance_scalar,
    .sum = sum_scalar,
    .axpy = axpy_scalar,
    .scale = scale_scalar,
    .fill = fill_scalar,
    .has_nonfinite = has_nonfinite_scalar,
    .relu_forward = relu_forward_scalar,
    .relu_backward = relu_backward_scalar,
    .matmul_rows = matmul_rows_scalar,
    .matmul_nt_rows = matmul_nt_rows_scalar,
    .matmul_tn_rows = matmul_tn_rows_scalar,
    .conv_forward_image = conv_forward_image_scalar,
};

}  // namespace

const KernelTable& scalar_table() noexcept { return kScalarTable; }

void conv_taps(std::size_t channels, std::size_t kernel, std::size_t padded_h,
               std::size_t padded_w, std::size_t* taps) noexcept {
  for (std::size_t ch = 0; ch < channels; ++ch) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        *taps++ = (ch * padded_h + ky) * padded_w + kx;
      }
    }
  }
}

}  // namespace fifl::tensor::kernels
