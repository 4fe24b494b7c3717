// SHA-256 compression on the x86 SHA extensions (sha256rnds2 / sha256msg1
// / sha256msg2). This is the only TU built with -msha -msse4.1, and it is
// entered only after active_compress() confirmed both CPUID features.
// Without compiler support it degrades to the shani_compress() == nullptr
// stub, so only the portable compression exists.
#include "chain/sha256_compress.hpp"

#if defined(__SHA__) && defined(__SSE4_1__) && !defined(FIFL_SHA256_NO_SHANI)

#include <immintrin.h>

namespace fifl::chain::detail {

namespace {

__m128i load(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

/// Four rounds: the schedule words plus their round constants, two
/// sha256rnds2 steps of two rounds each. The state is held as ABEF and
/// CDGH, the layout sha256rnds2 takes.
void rounds4(__m128i& abef, __m128i& cdgh, __m128i w, std::size_t t) {
  const __m128i wk = _mm_add_epi32(w, load(&kRoundConstants[t]));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Schedule words W[t..t+3] from the sixteen before them, passed as
/// W[t-16..t-13], W[t-12..t-9], W[t-8..t-5] and W[t-4..t-1]: msg1 adds
/// σ0(W[t-15]) to W[t-16], the alignr brings in W[t-7], and msg2 adds
/// σ1(W[t-2]).
__m128i schedule(__m128i w16, __m128i w12, __m128i w8, __m128i w4) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                        _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(partial, w4);
}

void compress_shani(std::uint32_t* state, const std::uint8_t* data,
                    std::size_t blocks) {
  // Big-endian message words.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // state[0..7] = A..H → ABEF and CDGH (highest lane first).
  const __m128i dcba = load(state);
  const __m128i hgfe = load(state + 4);
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = _mm_shuffle_epi8(load(data), bswap);
    __m128i w1 = _mm_shuffle_epi8(load(data + 16), bswap);
    __m128i w2 = _mm_shuffle_epi8(load(data + 32), bswap);
    __m128i w3 = _mm_shuffle_epi8(load(data + 48), bswap);
    rounds4(abef, cdgh, w0, 0);
    rounds4(abef, cdgh, w1, 4);
    rounds4(abef, cdgh, w2, 8);
    rounds4(abef, cdgh, w3, 12);
    for (std::size_t t = 16; t < 64; t += 16) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, t);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, t + 4);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, t + 8);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, t + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF and CDGH → A..H.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace

CompressFn shani_compress() noexcept { return &compress_shani; }

}  // namespace fifl::chain::detail

#else  // no SHA-extensions support in this build

namespace fifl::chain::detail {

CompressFn shani_compress() noexcept { return nullptr; }

}  // namespace fifl::chain::detail

#endif
