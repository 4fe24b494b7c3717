// SIMD kernel layer behind fifl::tensor — scalar + AVX2 backends selected
// once at startup by CPUID-based runtime dispatch.
//
// Determinism contract (non-negotiable, see DESIGN.md "Kernel layer and
// runtime dispatch"): every backend of a kernel produces bit-identical
// results for identical inputs. That is achieved *by construction*, not by
// tolerance:
//
//   * Reductions (dot / squared_norm / squared_distance / sum) accumulate
//     in double across kDoubleLanes = 16 fixed lanes: lane l sums the
//     elements with index ≡ l (mod 16), blocks ascending — exactly one
//     AVX2 convert/mul/add step per 8-float half-block, four independent
//     accumulator chains so the add latency never serialises the loop.
//     The lanes collapse through the fixed two-stage tree
//       // order: v[l] = lane[l] + lane[l+8] (l = 0..7), then
//       //        w[l] = v[l] + v[l+4]      (l = 0..3), then
//       //        result = (w0 + w2) + (w1 + w3)
//     which is precisely what the AVX2 horizontal reduce
//     (add_pd(acc0, acc2) / add_pd(acc1, acc3) → add_pd pair →
//     add_pd(low128, high128) → low + high) computes. Tail elements
//     (n mod 16) are appended to the tree result serially, ascending.
//   * The float accumulator in matmul_nt_rows uses the same 8-lane
//     discipline in float: s[l] = lane[l] + lane[l+4], then
//     (s0 + s2) + (s1 + s3).
//   * conv_forward_image computes each output with matmul_nt_rows' order
//     over the patch taps, then + bias. The AVX2 backend keeps float lane
//     l of 8 adjacent output pixels in one register, so the same tree is 7
//     vertical adds per 8 outputs instead of a horizontal reduce per output.
//   * matmul_rows / matmul_tn_rows are axpy-form (c[j] += a*b[j], one
//     contribution per kk, kk ascending): no cross-lane reduction, so
//     vectorising the j loop is trivially bit-identical. Both backends
//     skip `a == 0.0f` terms so sparsified gradients cost nothing.
//     matmul_tn_rows runs kk outermost (i, then j, inside): each element
//     still sees kk ascending, so it equals the i-outer loop bit for bit
//     while reading A and B once instead of once per output row.
//   * No FMA anywhere: multiply and add stay separate roundings in both
//     backends, and the kernel TUs compile with -ffp-contract=off so the
//     compiler cannot fuse them behind our back.
//
// The equivalence is pinned by tests/tensor/test_kernels.cpp (bitwise
// scalar-vs-AVX2 over awkward lengths) and fifl-lint R3, which requires
// `// order:` annotations on every FP reduction in this directory.
//
// Dispatch: active() resolves once (thread-safe static) to AVX2 iff the
// CPU reports it; FIFL_KERNEL_ISA=scalar|avx2 overrides for testing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fifl::tensor::kernels {

/// Lane width of the float-accumulator layout and of the elementwise
/// kernels (floats per AVX2 register).
inline constexpr std::size_t kFloatLanes = 8;

/// Lane count of the double-reduction layout: two 8-float blocks per step,
/// four AVX2 double accumulators (see the file-header contract).
inline constexpr std::size_t kDoubleLanes = 16;

enum class Isa { kScalar, kAvx2 };

/// Shape of one image's direct convolution (KernelTable::conv_forward_image).
/// The input is an image with its zero border already in place, `padded_w`
/// floats per row. Output pixel (oy, ox) reads tap kk at offset
/// (oy·padded_w + ox)·stride + taps[kk]; conv_taps() builds that table.
struct ConvImageShape {
  std::size_t padded_w;      // floats per row of the zero-bordered image
  std::size_t stride;
  std::size_t patch;         // taps per output, C·K·K
  std::size_t out_channels;  // OC
  std::size_t out_h, out_w;  // OH, OW
};

/// Fills taps[kk] for kk = (ch·K + ky)·K + kx — im2col's column order —
/// with (ch·padded_h + ky)·padded_w + kx: where that tap of an output
/// pixel's window lies in a (C, padded_h, padded_w) zero-bordered image,
/// relative to the window's first tap. `taps` holds C·K·K entries.
void conv_taps(std::size_t channels, std::size_t kernel, std::size_t padded_h,
               std::size_t padded_w, std::size_t* taps) noexcept;

/// Backend function table. Size/shape validation happens in the callers
/// (tensor::ops / fl::Gradient); kernels assume valid pointers and may be
/// called with n == 0. Row kernels cover rows [i0, i1) so callers can
/// parallelise over row ranges; the axpy-form kernels (matmul_rows,
/// matmul_tn_rows) require their C rows pre-zeroed.
struct KernelTable {
  const char* name;  // "scalar" | "avx2"

  // Reductions (double accumulation, fixed 16-lane tree — see file header).
  double (*dot)(const float* a, const float* b, std::size_t n);
  double (*squared_norm)(const float* x, std::size_t n);
  double (*squared_distance)(const float* a, const float* b, std::size_t n);
  double (*sum)(const float* x, std::size_t n);

  // Elementwise (bit-identical per element; no reduction involved).
  void (*axpy)(float* dst, float alpha, const float* x, std::size_t n);
  void (*scale)(float* dst, float alpha, std::size_t n);
  void (*fill)(float* dst, float value, std::size_t n);
  bool (*has_nonfinite)(const float* x, std::size_t n);
  /// y[i] = x[i], or +0 where x[i] < 0 (−0 and NaN pass unchanged);
  /// pass[i] = 1 where !(x[i] <= 0) (NaN passes, ±0 do not), else 0.
  void (*relu_forward)(const float* x, float* y, std::uint8_t* pass,
                       std::size_t n);
  /// gx[i] = g[i] where pass[i] != 0, else +0.
  void (*relu_backward)(const float* g, const std::uint8_t* pass, float* gx,
                        std::size_t n);

  // Matrix row kernels. A is m×k row-major unless noted, B k×n, C m×n.
  /// C rows [i0,i1) += A(i,·)·B — axpy-form over kk, C pre-zeroed.
  void (*matmul_rows)(const float* a, const float* b, float* c,
                      std::size_t i0, std::size_t i1, std::size_t k,
                      std::size_t n);
  /// C(i,j) = ⟨A(i,·), B(j,·)⟩ with B n×k — dot-form, float 8-lane tree.
  void (*matmul_nt_rows)(const float* a, const float* b, float* c,
                         std::size_t i0, std::size_t i1, std::size_t k,
                         std::size_t n);
  /// C rows [i0,i1) += Aᵀ(i,·)·B with A k×m — axpy-form, C pre-zeroed,
  /// kk outermost (one pass over A and B per call).
  void (*matmul_tn_rows)(const float* a, const float* b, float* c,
                         std::size_t i0, std::size_t i1, std::size_t k,
                         std::size_t m, std::size_t n);

  /// One image's convolution, out (OC, OH, OW) row-major: out(o, oy, ox) =
  /// ⟨W row o, the pixel's taps⟩ in matmul_nt_rows' float 8-lane order,
  /// then + bias[o]. W is OC × patch. `padded` must stay readable for
  /// kFloatLanes − 1 floats past the last tap of the last pixel.
  void (*conv_forward_image)(const float* padded, const std::size_t* taps,
                             const float* weight, const float* bias,
                             float* out, const ConvImageShape& shape);
};

/// The scalar reference backend (always available).
const KernelTable& scalar_table() noexcept;

/// The AVX2 backend, or nullptr when the build had no AVX2 support.
const KernelTable* avx2_table() noexcept;

/// True iff the running CPU reports AVX2 (CPUID via the compiler builtin).
bool cpu_supports_avx2() noexcept;

/// ISA resolved once per process: FIFL_KERNEL_ISA env override if set and
/// satisfiable (avx2 falls back to scalar with a warning when the CPU or
/// build lacks it), else AVX2 when available, else scalar.
Isa active_isa();

/// Table for the active ISA.
const KernelTable& active();

/// Table for an explicit ISA (tests/bench); kAvx2 falls back to scalar
/// when unavailable.
const KernelTable& table(Isa isa) noexcept;

const char* isa_name(Isa isa) noexcept;

}  // namespace fifl::tensor::kernels
