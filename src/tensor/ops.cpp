#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"
#include "util/parallel_for.hpp"

namespace fifl::tensor {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                a.shape_string() + " vs " + b.shape_string());
  }
}
}  // namespace

void add_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "add_inplace");
  kernels::active().axpy(dst.data(), 1.0f, src.data(), dst.numel());
}

void sub_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "sub_inplace");
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.numel(); ++i) d[i] -= s[i];
}

void mul_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "mul_inplace");
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.numel(); ++i) d[i] *= s[i];
}

void scale_inplace(Tensor& dst, float alpha) {
  kernels::active().scale(dst.data(), alpha, dst.numel());
}

void axpy_inplace(Tensor& dst, float alpha, const Tensor& x) {
  check_same_shape(dst, x, "axpy_inplace");
  kernels::active().axpy(dst.data(), alpha, x.data(), dst.numel());
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  sub_inplace(out, b);
  return out;
}

double sum(const Tensor& t) noexcept {
  return kernels::active().sum(t.data(), t.numel());
}

double dot(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  return kernels::active().dot(a.data(), b.data(), a.size());
}

double dot(const Tensor& a, const Tensor& b) { return dot(a.flat(), b.flat()); }

double squared_norm(const Tensor& t) noexcept {
  return kernels::active().squared_norm(t.data(), t.numel());
}

double norm(const Tensor& t) noexcept { return std::sqrt(squared_norm(t)); }

double squared_distance(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("squared_distance: size mismatch");
  }
  return kernels::active().squared_distance(a.data(), b.data(), a.size());
}

double cosine_similarity(std::span<const float> a, std::span<const float> b) {
  const kernels::KernelTable& kt = kernels::active();
  if (a.size() != b.size()) {
    throw std::invalid_argument("cosine_similarity: size mismatch");
  }
  const double ab = kt.dot(a.data(), b.data(), a.size());
  const double na = kt.squared_norm(a.data(), a.size());
  const double nb = kt.squared_norm(b.data(), b.size());
  if (na == 0.0 || nb == 0.0) return 0.0;
  return ab / (std::sqrt(na) * std::sqrt(nb));
}

std::size_t argmax(std::span<const float> xs) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] > xs[best]) best = i;
  }
  return best;
}

namespace {
/// C floats per matmul_tn row block (16 KiB, half a typical L1d).
constexpr std::size_t kTnBlockFloats = 4096;

void check_rank2(const Tensor& t, const char* what) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(what) + ": expected rank-2, got " +
                                t.shape_string());
  }
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor c({m, n});
  const kernels::KernelTable& kt = kernels::active();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  util::parallel_for(
      0, m,
      [&](std::size_t i) { kt.matmul_rows(pa, pb, pc, i, i + 1, k, n); },
      /*grain=*/std::max<std::size_t>(1, 4096 / std::max<std::size_t>(1, n * k / m + 1)));
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_nt");
  check_rank2(b, "matmul_nt");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument("matmul_nt: inner dim mismatch");
  Tensor c({m, n});
  const kernels::KernelTable& kt = kernels::active();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  util::parallel_for(
      0, m,
      [&](std::size_t i) { kt.matmul_nt_rows(pa, pb, pc, i, i + 1, k, n); },
      /*grain=*/1);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_tn");
  check_rank2(b, "matmul_tn");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul_tn: inner dim mismatch");
  Tensor c({m, n});
  const kernels::KernelTable& kt = kernels::active();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Row blocks of about kTnBlockFloats C floats: the kernel streams A and B
  // once per block while the block stays in L1.
  const std::size_t rows =
      std::max<std::size_t>(1, kTnBlockFloats / std::max<std::size_t>(1, n));
  util::parallel_for(
      0, (m + rows - 1) / rows,
      [&](std::size_t blk) {
        const std::size_t i0 = blk * rows;
        kt.matmul_tn_rows(pa, pb, pc, i0, std::min(m, i0 + rows), k, m, n);
      },
      /*grain=*/1);
  return c;
}

Tensor transpose(const Tensor& a) {
  check_rank2(a, "transpose");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) out(j, i) = a(i, j);
  }
  return out;
}

bool has_nonfinite(std::span<const float> xs) noexcept {
  return kernels::active().has_nonfinite(xs.data(), xs.size());
}

bool has_nonfinite(const Tensor& t) noexcept { return has_nonfinite(t.flat()); }

}  // namespace fifl::tensor
