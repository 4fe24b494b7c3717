// AVX2 backend. Compiled with -mavx2 -ffp-contract=off (see
// src/tensor/CMakeLists.txt); every function here must only run after the
// dispatcher confirmed CPU support. The lane layout and collapse trees are
// the scalar backend's, instruction for instruction — see kernels.hpp for
// the contract and lane_reduce.hpp for the trees being mirrored. No FMA:
// _mm256_mul_* and _mm256_add_* stay separate roundings.
#include <cstddef>
#include <cstdint>

#include "tensor/kernels/kernels.hpp"

#if defined(__AVX2__) && !defined(FIFL_KERNELS_NO_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels/lane_reduce.hpp"

namespace fifl::tensor::kernels {
namespace {

constexpr std::size_t kLanes = kFloatLanes;
constexpr std::size_t kDLanes = kDoubleLanes;

// Horizontal collapse of two double accumulator registers (lanes 0-3 /
// 4-7 of an 8-wide layout).
// order: v[l] = lane[l] + lane[l+4] via add_pd(acc_lo, acc_hi), then
// (v0 + v2) + (v1 + v3) via the 128-bit fold — reduce_lanes8 exactly.
inline double hreduce8(__m256d acc_lo, __m256d acc_hi) noexcept {
  const __m256d v = _mm256_add_pd(acc_lo, acc_hi);
  const __m128d lo = _mm256_castpd256_pd128(v);    // (v0, v1)
  const __m128d hi = _mm256_extractf128_pd(v, 1);  // (v2, v3)
  const __m128d s = _mm_add_pd(lo, hi);            // (v0+v2, v1+v3)
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// Horizontal collapse of the four double accumulators of the 16-lane
// reduction layout (acc0 = lanes 0-3, acc1 = 4-7, acc2 = 8-11,
// acc3 = 12-15).
// order: v[l] = lane[l] + lane[l+8] via add_pd(acc0, acc2) /
// add_pd(acc1, acc3), then the 8-lane fold above — reduce_lanes16 exactly.
inline double hreduce16(__m256d acc0, __m256d acc1, __m256d acc2,
                        __m256d acc3) noexcept {
  return hreduce8(_mm256_add_pd(acc0, acc2), _mm256_add_pd(acc1, acc3));
}

// Horizontal collapse of one float accumulator register.
// order: s[l] = lane[l] + lane[l+4] via the 128-bit fold, then
// (s0 + s2) + (s1 + s3) — reduce_lanes8f exactly.
inline float hreduce8f(__m256 acc) noexcept {
  const __m128 lo = _mm256_castps256_ps128(acc);   // lanes 0..3
  const __m128 hi = _mm256_extractf128_ps(acc, 1); // lanes 4..7
  const __m128 s = _mm_add_ps(lo, hi);             // (s0, s1, s2, s3)
  const __m128 t = _mm_add_ps(s, _mm_movehl_ps(s, s));  // (s0+s2, s1+s3, …)
  return _mm_cvtss_f32(
      _mm_add_ss(t, _mm_shuffle_ps(t, t, 0x1)));   // (s0+s2) + (s1+s3)
}

// Load 4 floats and widen to 4 doubles — the reduction kernels' only load
// form. The float→double conversion is exact, so lane values are identical
// to any wider-load variant; this form folds the load straight into
// vcvtps2pd (no extract µop, less port-5 pressure).
inline __m256d load4_pd(const float* p) noexcept {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

// One 16-element block of the dot reduction.
inline void dot_block(const float* a, const float* b, std::size_t i,
                      __m256d& acc0, __m256d& acc1, __m256d& acc2,
                      __m256d& acc3) noexcept {
  acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(load4_pd(a + i), load4_pd(b + i)));
  acc1 = _mm256_add_pd(
      acc1, _mm256_mul_pd(load4_pd(a + i + 4), load4_pd(b + i + 4)));
  acc2 = _mm256_add_pd(
      acc2, _mm256_mul_pd(load4_pd(a + i + 8), load4_pd(b + i + 8)));
  acc3 = _mm256_add_pd(
      acc3, _mm256_mul_pd(load4_pd(a + i + 12), load4_pd(b + i + 12)));
}

double dot_avx2(const float* a, const float* b, std::size_t n) {
  const std::size_t main = n - n % kDLanes;
  const std::size_t main4 = n - n % (4 * kDLanes);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  // order: lane l accumulates a[i+l]*b[i+l] per 16-block, blocks ascending
  // (acc0 = lanes 0-3, acc1 = 4-7, acc2 = 8-11, acc3 = 12-15) — four
  // independent add chains, matches dot_scalar. The 64-element superblock
  // is pure software unroll: the same 16-blocks hit the same accumulators
  // in the same ascending order, so every rounding is unchanged — it only
  // trims loop bookkeeping per element.
  std::size_t i = 0;
  for (; i < main4; i += 4 * kDLanes) {
    dot_block(a, b, i, acc0, acc1, acc2, acc3);
    dot_block(a, b, i + kDLanes, acc0, acc1, acc2, acc3);
    dot_block(a, b, i + 2 * kDLanes, acc0, acc1, acc2, acc3);
    dot_block(a, b, i + 3 * kDLanes, acc0, acc1, acc2, acc3);
  }
  for (; i < main; i += kDLanes) {
    dot_block(a, b, i, acc0, acc1, acc2, acc3);
  }
  double acc = hreduce16(acc0, acc1, acc2, acc3);
  // order: tail elements ascending, appended after the lane tree.
  for (i = main; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double squared_norm_avx2(const float* x, std::size_t n) {
  return dot_avx2(x, x, n);
}

// One 16-element block of the squared-distance reduction.
inline void sqdist_block(const float* a, const float* b, std::size_t i,
                         __m256d& acc0, __m256d& acc1, __m256d& acc2,
                         __m256d& acc3) noexcept {
  const __m256d d0 = _mm256_sub_pd(load4_pd(a + i), load4_pd(b + i));
  const __m256d d1 = _mm256_sub_pd(load4_pd(a + i + 4), load4_pd(b + i + 4));
  const __m256d d2 = _mm256_sub_pd(load4_pd(a + i + 8), load4_pd(b + i + 8));
  const __m256d d3 = _mm256_sub_pd(load4_pd(a + i + 12), load4_pd(b + i + 12));
  acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
  acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
  acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
}

double squared_distance_avx2(const float* a, const float* b, std::size_t n) {
  const std::size_t main = n - n % kDLanes;
  const std::size_t main4 = n - n % (4 * kDLanes);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  // order: lane l accumulates (a[i+l]-b[i+l])² per 16-block, blocks
  // ascending — matches squared_distance_scalar (subtract in double; the
  // float→double converts are exact). The 64-element superblock is pure
  // software unroll — same blocks, same accumulators, same order, every
  // rounding unchanged.
  std::size_t i = 0;
  for (; i < main4; i += 4 * kDLanes) {
    sqdist_block(a, b, i, acc0, acc1, acc2, acc3);
    sqdist_block(a, b, i + kDLanes, acc0, acc1, acc2, acc3);
    sqdist_block(a, b, i + 2 * kDLanes, acc0, acc1, acc2, acc3);
    sqdist_block(a, b, i + 3 * kDLanes, acc0, acc1, acc2, acc3);
  }
  for (; i < main; i += kDLanes) {
    sqdist_block(a, b, i, acc0, acc1, acc2, acc3);
  }
  double acc = hreduce16(acc0, acc1, acc2, acc3);
  // order: tail elements ascending, appended after the lane tree.
  for (i = main; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

double sum_avx2(const float* x, std::size_t n) {
  const std::size_t main = n - n % kDLanes;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  // order: lane l accumulates x[i+l] per 16-block, blocks ascending.
  for (std::size_t i = 0; i < main; i += kDLanes) {
    acc0 = _mm256_add_pd(acc0, load4_pd(x + i));
    acc1 = _mm256_add_pd(acc1, load4_pd(x + i + 4));
    acc2 = _mm256_add_pd(acc2, load4_pd(x + i + 8));
    acc3 = _mm256_add_pd(acc3, load4_pd(x + i + 12));
  }
  double acc = hreduce16(acc0, acc1, acc2, acc3);
  // order: tail elements ascending, appended after the lane tree.
  for (std::size_t i = main; i < n; ++i) acc += static_cast<double>(x[i]);
  return acc;
}

void axpy_avx2(float* dst, float alpha, const float* x, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256 av = _mm256_set1_ps(alpha);
  // Elementwise mul-then-add, same two roundings as the scalar backend.
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256 d = _mm256_loadu_ps(dst + i);
    const __m256 xv = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(d, _mm256_mul_ps(av, xv)));
  }
  for (std::size_t i = main; i < n; ++i) dst[i] += alpha * x[i];
}

void scale_avx2(float* dst, float alpha, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256 av = _mm256_set1_ps(alpha);
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), av));
  }
  for (std::size_t i = main; i < n; ++i) dst[i] *= alpha;
}

void fill_avx2(float* dst, float value, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256 v = _mm256_set1_ps(value);
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm256_storeu_ps(dst + i, v);
  }
  for (std::size_t i = main; i < n; ++i) dst[i] = value;
}

// ReLU: the scalar backend's compares, eight lanes at a time, and its loop
// for the last n mod 8. NLT_UQ and NLE_UQ are true for NaN, as !(x < 0)
// and !(x <= 0) are.
void relu_forward_avx2(const float* x, float* y, std::uint8_t* pass,
                       std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256 zero = _mm256_setzero_ps();
  const __m128i one = _mm_set1_epi8(1);
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 keep = _mm256_cmp_ps(v, zero, _CMP_NLT_UQ);
    _mm256_storeu_ps(y + i, _mm256_and_ps(v, keep));
    // All-ones / zero lanes narrow to 0xFF / 0 bytes, then to 1 / 0.
    const __m256i on = _mm256_castps_si256(_mm256_cmp_ps(v, zero, _CMP_NLE_UQ));
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(on),
                                      _mm256_extracti128_si256(on, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(pass + i),
                     _mm_and_si128(_mm_packs_epi16(w, w), one));
  }
  scalar_table().relu_forward(x + main, y + main, pass + main, n - main);
}

void relu_backward_avx2(const float* g, const std::uint8_t* pass, float* gx,
                        std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256i p = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(pass + i)));
    const __m256 blocked = _mm256_castsi256_ps(_mm256_cmpeq_epi32(p, zero));
    _mm256_storeu_ps(gx + i, _mm256_andnot_ps(blocked, _mm256_loadu_ps(g + i)));
  }
  scalar_table().relu_backward(g + main, pass + main, gx + main, n - main);
}

bool has_nonfinite_avx2(const float* x, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256 av = _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask);
    // NLT_UQ: true when |v| >= inf or v is NaN (unordered) — i.e. not
    // finite. Any set lane short-circuits.
    const __m256 bad = _mm256_cmp_ps(av, inf, _CMP_NLT_UQ);
    if (_mm256_movemask_ps(bad) != 0) return true;
  }
  for (std::size_t i = main; i < n; ++i) {
    if (!std::isfinite(x[i])) return true;
  }
  return false;
}

// ---- axpy-form matmuls (matmul_rows / matmul_tn_rows) ----------------------
//
// Both kernels gather, per C row, the A entries that contribute — kk
// ascending, zeros skipped — as Terms, then sweep the row in register
// blocks: each C element is loaded once, takes every term in order (one
// mul + one add rounding each, exactly c += a*b of the scalar backend) and
// is stored once. Holding C in registers across terms changes no rounding;
// it only removes the load/store per contribution.
//
// The gather writes every entry and advances the count by `a != 0`, so a
// zero's slot is overwritten by the next term: the same terms in the same
// order as a skip, without a branch on gradient zeros, whose pattern
// behind ReLU and max-pool is data the predictor cannot learn.

struct Term {
  __m256 a;        // A entry, broadcast
  const float* b;  // B row kk
};

/// Terms gathered per C row before a sweep (bounds the stack buffer).
constexpr std::size_t kTermBlock = 32;
/// kk rows per matmul_tn_rows block: B rows stay in L1 across the i loop.
constexpr std::size_t kTnRowBlock = 8;

// Lane mask selecting the first r (1..7) floats of a register.
inline __m256i first_lanes(std::size_t r) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// crow[j] += t.a * t.b[j] for every term in order, j in [0, n).
inline void apply_terms(float* crow, const Term* terms, std::size_t count,
                        std::size_t n) noexcept {
  std::size_t j = 0;
  // Four independent accumulators hide the add latency.
  for (; j + 4 * kLanes <= n; j += 4 * kLanes) {
    __m256 c0 = _mm256_loadu_ps(crow + j);
    __m256 c1 = _mm256_loadu_ps(crow + j + kLanes);
    __m256 c2 = _mm256_loadu_ps(crow + j + 2 * kLanes);
    __m256 c3 = _mm256_loadu_ps(crow + j + 3 * kLanes);
    // order: per element, terms (kk) ascending.
    for (std::size_t t = 0; t < count; ++t) {
      const __m256 av = terms[t].a;
      const float* b = terms[t].b + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(b)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, _mm256_loadu_ps(b + kLanes)));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, _mm256_loadu_ps(b + 2 * kLanes)));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, _mm256_loadu_ps(b + 3 * kLanes)));
    }
    _mm256_storeu_ps(crow + j, c0);
    _mm256_storeu_ps(crow + j + kLanes, c1);
    _mm256_storeu_ps(crow + j + 2 * kLanes, c2);
    _mm256_storeu_ps(crow + j + 3 * kLanes, c3);
  }
  for (; j + kLanes <= n; j += kLanes) {
    __m256 c0 = _mm256_loadu_ps(crow + j);
    // order: per element, terms (kk) ascending.
    for (std::size_t t = 0; t < count; ++t) {
      c0 = _mm256_add_ps(
          c0, _mm256_mul_ps(terms[t].a, _mm256_loadu_ps(terms[t].b + j)));
    }
    _mm256_storeu_ps(crow + j, c0);
  }
  if (j < n) {
    // Masked tail: off lanes read as 0 and are never stored.
    const __m256i mask = first_lanes(n - j);
    __m256 c0 = _mm256_maskload_ps(crow + j, mask);
    // order: per element, terms (kk) ascending.
    for (std::size_t t = 0; t < count; ++t) {
      c0 = _mm256_add_ps(
          c0, _mm256_mul_ps(terms[t].a, _mm256_maskload_ps(terms[t].b + j, mask)));
    }
    _mm256_maskstore_ps(crow + j, mask, c0);
  }
}

void matmul_rows_avx2(const float* a, const float* b, float* c,
                      std::size_t i0, std::size_t i1, std::size_t k,
                      std::size_t n) {
  Term terms[kTermBlock];
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    // order: per output j, contributions kk ascending (axpy-form) — term
    // blocks ascending, kk ascending within each.
    for (std::size_t kk0 = 0; kk0 < k; kk0 += kTermBlock) {
      const std::size_t kk1 = std::min(k, kk0 + kTermBlock);
      std::size_t count = 0;
      for (std::size_t kk = kk0; kk < kk1; ++kk) {
        const float av = arow[kk];
        terms[count] = Term{_mm256_set1_ps(av), b + kk * n};
        count += static_cast<std::size_t>(av != 0.0f);
      }
      if (count != 0) apply_terms(crow, terms, count, n);
    }
  }
}

// Four hreduce8f at once: lane q of the result is hreduce8f(acc_q), by the
// same adds on the same operands in the same order.
// order: s[l] = lane[l] + lane[l+4] (128-bit halves), then
// t0 = s0 + s2, t1 = s1 + s3, then t0 + t1 — reduce_lanes8f exactly.
inline __m128 hreduce8f_x4(__m256 a0, __m256 a1, __m256 a2,
                           __m256 a3) noexcept {
  // [S0 | S2] and [S1 | S3], S_q = (s0, s1, s2, s3) of accumulator q.
  const __m256 s02 = _mm256_add_ps(_mm256_permute2f128_ps(a0, a2, 0x20),
                                   _mm256_permute2f128_ps(a0, a2, 0x31));
  const __m256 s13 = _mm256_add_ps(_mm256_permute2f128_ps(a1, a3, 0x20),
                                   _mm256_permute2f128_ps(a1, a3, 0x31));
  // Per half: (t0_q, t0_q+1, t1_q, t1_q+1).
  const __m256 t = _mm256_add_ps(_mm256_unpacklo_ps(s02, s13),
                                 _mm256_unpackhi_ps(s02, s13));
  // Lanes 0,1 of each half: t0 + t1 for accumulators (0,1) and (2,3).
  const __m256 r =
      _mm256_add_ps(t, _mm256_shuffle_ps(t, t, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_movelh_ps(_mm256_castps256_ps128(r), _mm256_extractf128_ps(r, 1));
}

void matmul_nt_rows_avx2(const float* a, const float* b, float* c,
                         std::size_t i0, std::size_t i1, std::size_t k,
                         std::size_t n) {
  const std::size_t main = k - k % kLanes;
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    // Register blocking: four B rows share each A load, four independent
    // accumulator chains; a pair, then a single row, take the remainder.
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* bq[4] = {b + j * k, b + (j + 1) * k, b + (j + 2) * k,
                            b + (j + 3) * k};
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      // order: float lane l accumulates kk ≡ l (mod 8), blocks ascending;
      // collapse (s0+s2)+(s1+s3) — matches matmul_nt_rows_scalar.
      for (std::size_t kk = 0; kk < main; kk += kLanes) {
        const __m256 av = _mm256_loadu_ps(arow + kk);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(bq[0] + kk)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(bq[1] + kk)));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(av, _mm256_loadu_ps(bq[2] + kk)));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(av, _mm256_loadu_ps(bq[3] + kk)));
      }
      float r[4];
      _mm_storeu_ps(r, hreduce8f_x4(acc0, acc1, acc2, acc3));
      // order: tail kk ascending, appended after the lane tree.
      for (std::size_t kk = main; kk < k; ++kk) {
        for (std::size_t q = 0; q < 4; ++q) r[q] += arow[kk] * bq[q][kk];
      }
      for (std::size_t q = 0; q < 4; ++q) crow[j + q] = r[q];
    }
    if (j + 2 <= n) {
      const float* b0 = b + j * k;
      const float* b1 = b + (j + 1) * k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      // order: float lane l accumulates kk ≡ l (mod 8), blocks ascending.
      for (std::size_t kk = 0; kk < main; kk += kLanes) {
        const __m256 av = _mm256_loadu_ps(arow + kk);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(b0 + kk)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(b1 + kk)));
      }
      float r0 = hreduce8f(acc0);
      float r1 = hreduce8f(acc1);
      // order: tail kk ascending, appended after the lane tree.
      for (std::size_t kk = main; kk < k; ++kk) {
        r0 += arow[kk] * b0[kk];
        r1 += arow[kk] * b1[kk];
      }
      crow[j] = r0;
      crow[j + 1] = r1;
      j += 2;
    }
    if (j < n) {
      const float* b0 = b + j * k;
      __m256 acc0 = _mm256_setzero_ps();
      // order: float lane l accumulates kk ≡ l (mod 8), blocks ascending.
      for (std::size_t kk = 0; kk < main; kk += kLanes) {
        const __m256 av = _mm256_loadu_ps(arow + kk);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(av, _mm256_loadu_ps(b0 + kk)));
      }
      float r0 = hreduce8f(acc0);
      // order: tail kk ascending, appended after the lane tree.
      for (std::size_t kk = main; kk < k; ++kk) r0 += arow[kk] * b0[kk];
      crow[j] = r0;
    }
  }
}

void matmul_tn_rows_avx2(const float* a, const float* b, float* c,
                         std::size_t i0, std::size_t i1, std::size_t k,
                         std::size_t m, std::size_t n) {
  // kk outermost in blocks, as in matmul_tn_rows_scalar: one pass over A
  // and B; each C row takes a block's terms in one register sweep.
  Term terms[kTnRowBlock];
  for (std::size_t kk0 = 0; kk0 < k; kk0 += kTnRowBlock) {
    const std::size_t kk1 = std::min(k, kk0 + kTnRowBlock);
    for (std::size_t i = i0; i < i1; ++i) {
      std::size_t count = 0;
      // order: per output (i, j), contributions kk ascending (axpy-form) —
      // blocks ascending, kk ascending within each.
      for (std::size_t kk = kk0; kk < kk1; ++kk) {
        const float av = a[kk * m + i];
        terms[count] = Term{_mm256_set1_ps(av), b + kk * n};
        count += static_cast<std::size_t>(av != 0.0f);
      }
      if (count != 0) apply_terms(c + i * n, terms, count, n);
    }
  }
}

// 8 adjacent output pixels of one row, starting at `x`, for two output
// channels (weight rows w0, w1). Float lane l of the 8 pixels' dots over
// the taps is one register, so matmul_nt_rows' 8-lane tree becomes
// vertical adds, with no horizontal reduce, no unfold and no transposed
// write. Lanes l and l+4 run together for both channels: four accumulator
// chains, and each input load feeds two of them.
inline void conv_pixels8_x2(const float* x, const std::size_t* taps,
                            const float* w0, const float* w1,
                            std::size_t patch, __m256& out0,
                            __m256& out1) noexcept {
  const std::size_t main = patch - patch % kLanes;
  __m256 s0[4], s1[4];  // s[l] = lane[l] + lane[l+4], per channel
  for (std::size_t l = 0; l < 4; ++l) {
    __m256 a_lo = _mm256_setzero_ps(), a_hi = a_lo, b_lo = a_lo, b_hi = a_lo;
    // order: float lanes l and l+4 accumulate taps kk ≡ l, l+4 (mod 8),
    // blocks ascending — each pixel's lanes of matmul_nt_rows_scalar.
    for (std::size_t kk = l; kk < main; kk += kLanes) {
      const __m256 xl = _mm256_loadu_ps(x + taps[kk]);
      const __m256 xh = _mm256_loadu_ps(x + taps[kk + 4]);
      a_lo = _mm256_add_ps(a_lo, _mm256_mul_ps(xl, _mm256_set1_ps(w0[kk])));
      a_hi = _mm256_add_ps(a_hi, _mm256_mul_ps(xh, _mm256_set1_ps(w0[kk + 4])));
      b_lo = _mm256_add_ps(b_lo, _mm256_mul_ps(xl, _mm256_set1_ps(w1[kk])));
      b_hi = _mm256_add_ps(b_hi, _mm256_mul_ps(xh, _mm256_set1_ps(w1[kk + 4])));
    }
    s0[l] = _mm256_add_ps(a_lo, a_hi);
    s1[l] = _mm256_add_ps(b_lo, b_hi);
  }
  // order: (s0 + s2) + (s1 + s3) — reduce_lanes8f per pixel.
  __m256 acc0 =
      _mm256_add_ps(_mm256_add_ps(s0[0], s0[2]), _mm256_add_ps(s0[1], s0[3]));
  __m256 acc1 =
      _mm256_add_ps(_mm256_add_ps(s1[0], s1[2]), _mm256_add_ps(s1[1], s1[3]));
  // order: tail taps ascending, appended after the lane tree.
  for (std::size_t kk = main; kk < patch; ++kk) {
    const __m256 xv = _mm256_loadu_ps(x + taps[kk]);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(xv, _mm256_set1_ps(w0[kk])));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(xv, _mm256_set1_ps(w1[kk])));
  }
  out0 = acc0;
  out1 = acc1;
}

void conv_forward_image_avx2(const float* padded, const std::size_t* taps,
                             const float* weight, const float* bias,
                             float* out, const ConvImageShape& s) {
  // 8 adjacent pixels are 8 adjacent floats only at stride 1, which every
  // model uses; other strides take the scalar backend's loop.
  if (s.stride != 1) {
    scalar_table().conv_forward_image(padded, taps, weight, bias, out, s);
    return;
  }
  const std::size_t full = s.out_w - s.out_w % kLanes;
  const __m256i last = first_lanes(s.out_w - full);
  const std::size_t plane = s.out_h * s.out_w;
  for (std::size_t o0 = 0; o0 < s.out_channels; o0 += 2) {
    // An odd channel count computes its last channel twice, stores it once.
    const std::size_t o1 = std::min(o0 + 1, s.out_channels - 1);
    const float* w0 = weight + o0 * s.patch;
    const float* w1 = weight + o1 * s.patch;
    const __m256 b0 = _mm256_set1_ps(bias[o0]);
    const __m256 b1 = _mm256_set1_ps(bias[o1]);
    for (std::size_t oy = 0; oy < s.out_h; ++oy) {
      const float* x = padded + oy * s.padded_w;
      float* row0 = out + o0 * plane + oy * s.out_w;
      float* row1 = out + o1 * plane + oy * s.out_w;
      __m256 r0, r1;
      for (std::size_t ox = 0; ox < full; ox += kLanes) {
        conv_pixels8_x2(x + ox, taps, w0, w1, s.patch, r0, r1);
        // order: + bias after the whole dot, the scalar backend's last add.
        _mm256_storeu_ps(row0 + ox, _mm256_add_ps(r0, b0));
        _mm256_storeu_ps(row1 + ox, _mm256_add_ps(r1, b1));
      }
      if (full < s.out_w) {
        // The lanes past the row end read the slack; only valid lanes store.
        conv_pixels8_x2(x + full, taps, w0, w1, s.patch, r0, r1);
        _mm256_maskstore_ps(row0 + full, last, _mm256_add_ps(r0, b0));
        _mm256_maskstore_ps(row1 + full, last, _mm256_add_ps(r1, b1));
      }
    }
  }
}

constexpr KernelTable kAvx2Table = {
    .name = "avx2",
    .dot = dot_avx2,
    .squared_norm = squared_norm_avx2,
    .squared_distance = squared_distance_avx2,
    .sum = sum_avx2,
    .axpy = axpy_avx2,
    .scale = scale_avx2,
    .fill = fill_avx2,
    .has_nonfinite = has_nonfinite_avx2,
    .relu_forward = relu_forward_avx2,
    .relu_backward = relu_backward_avx2,
    .matmul_rows = matmul_rows_avx2,
    .matmul_nt_rows = matmul_nt_rows_avx2,
    .matmul_tn_rows = matmul_tn_rows_avx2,
    .conv_forward_image = conv_forward_image_avx2,
};

}  // namespace

const KernelTable* avx2_table() noexcept { return &kAvx2Table; }

}  // namespace fifl::tensor::kernels

#else  // no AVX2 in this build

namespace fifl::tensor::kernels {

const KernelTable* avx2_table() noexcept { return nullptr; }

}  // namespace fifl::tensor::kernels

#endif
