// CRC-32 by carry-less multiplication (PCLMULQDQ), after Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), with the bit-reflected constants for
// 0xEDB88320 that zlib and Chromium use. This is the only TU built with
// -mpclmul -msse4.1, and it is entered only after active_crc32() confirmed
// both CPUID features. Without compiler support it degrades to the
// clmul_crc32() == nullptr stub, so only the table CRC exists.
#include "net/crc32_backends.hpp"

#if defined(__PCLMUL__) && defined(__SSE4_1__) && !defined(FIFL_CRC32_NO_CLMUL)

#include <immintrin.h>

namespace fifl::net::detail {

namespace {

// Fold constants in the reflected domain, each [x^e mod P(x) << 32]' << 1
// for the distance e that one step moves a 128-bit lane forward:
// k1, k2 (e = 4·128 ± 32) carry a lane 64 bytes ahead, k3, k4
// (e = 128 ± 32) 16 bytes ahead, and k5 (e = 64) folds 128 bits to 64.
constexpr long long kK1 = 0x0154442bd4, kK2 = 0x01c6e41596;
constexpr long long kK3 = 0x01751997d0, kK4 = 0x00ccaa009e;
constexpr long long kK5 = 0x0163cd6124;
// Barrett reduction: P(x)' = 0x1DB710641 and μ' = [x^64 / P(x)]'.
constexpr long long kPoly = 0x01db710641, kMu = 0x01f7011641;

__m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries `lane` forward by the distance the pair `k` encodes (low half ×
/// k's low qword, high half × its high qword) and adds `next`, the block
/// that sits there.
__m128i fold(__m128i lane, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// The CRC register `state` (seed ^ 0xFFFFFFFF) run over n bytes, n ≥ 64
/// and a multiple of 16.
std::uint32_t fold_blocks(const std::uint8_t* p, std::size_t n,
                          std::uint32_t state) {
  // Four lanes, 64 bytes per step; the register enters as the low 32 bits
  // of the first block.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k12, load(p));
    x1 = fold(x1, k12, load(p + 16));
    x2 = fold(x2, k12, load(p + 32));
    x3 = fold(x3, k12, load(p + 48));
  }

  // The four lanes into one, then the remaining 16-byte blocks.
  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  x0 = fold(x0, k34, x1);
  x0 = fold(x0, k34, x2);
  x0 = fold(x0, k34, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k34, load(p));

  // 128 → 64 bits: the low qword × k4 into the high one, then the low 32
  // bits × k5 into the 64 above them.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k34, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), _mm_set_epi64x(0, kK5),
                           0x00));

  // Barrett reduction 64 → 32 bits: q = (low 32 × μ') mod x^32, then the
  // register is (x0 ⊕ q·P') bits 32..63.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

std::uint32_t crc32_clmul(std::span<const std::uint8_t> data,
                          std::uint32_t seed) {
  if (data.size() < 64) return crc32_table(data, seed);
  const std::size_t folded = data.size() & ~std::size_t{15};
  const std::uint32_t state =
      fold_blocks(data.data(), folded, seed ^ 0xFFFFFFFFu);
  return crc32_table(data.subspan(folded), state ^ 0xFFFFFFFFu);
}

}  // namespace

Crc32Fn clmul_crc32() noexcept { return &crc32_clmul; }

}  // namespace fifl::net::detail

#else  // no PCLMULQDQ support in this build

namespace fifl::net::detail {

Crc32Fn clmul_crc32() noexcept { return nullptr; }

}  // namespace fifl::net::detail

#endif
