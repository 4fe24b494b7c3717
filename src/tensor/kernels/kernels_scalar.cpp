// Scalar reference backend.
//
// This is not "the slow path with any loop shape": it implements the exact
// lane layout the AVX2 backend uses (16 double lanes for reductions /
// 8 float lanes for matmul_nt, lane l ← elements ≡ l mod the lane count,
// blocks ascending, fixed collapse trees from lane_reduce.hpp, serial
// tail) so the two backends are bit-identical by construction. Compiled with
// -ffp-contract=off so GCC cannot fuse the separate mul/add roundings into
// FMA; the compiler is still free to auto-vectorise the lane loops — the
// per-lane operation sequence, and therefore every rounding, is unchanged.
#include <cmath>
#include <cstddef>

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
    .matmul_rows = matmul_rows_scalar,
    .matmul_nt_rows = matmul_nt_rows_scalar,
    .matmul_tn_rows = matmul_tn_rows_scalar,
};

}  // namespace

const KernelTable& scalar_table() noexcept { return kScalarTable; }

}  // namespace fifl::tensor::kernels
