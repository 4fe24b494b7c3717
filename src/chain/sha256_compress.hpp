// SHA-256 compression backends behind chain::Sha256. Private to src/chain,
// its tests and the chain micro benchmark: callers outside hash through
// Sha256 / sha256(), which use the backend selected once per process.
//
// Every backend computes the FIPS 180-4 compression function, so the
// digests are the same bytes whichever one runs. The portable one is the
// reference and the fallback; the SHA-extensions one is built from its own
// TU (sha256_shani.cpp, the only one compiled with -msha -msse4.1) and is
// entered only after CPUID confirmed both features.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "chain/sha256.hpp"

namespace fifl::chain::detail {

/// FIPS 180-4 round constants K[0..63].
alignas(16) inline constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// CompressFn (chain/sha256.hpp) runs `blocks` consecutive 64-byte blocks
// of `data` through the compression function, updating the eight state
// words in place.

/// Portable compression: always built, the reference for the others.
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks);

/// The x86 SHA-extensions compression, or nullptr when the compiler could
/// not build it.
CompressFn shani_compress() noexcept;

/// True iff the running CPU reports the SHA extensions and SSE4.1.
bool cpu_supports_shani() noexcept;

/// Compression resolved once per process: SHA extensions when the build
/// has them, CPUID reports them and FIFL_KERNEL_ISA is not `scalar`;
/// otherwise the portable one.
CompressFn active_compress();

/// "shani" or "portable".
const char* compress_name(CompressFn fn) noexcept;

}  // namespace fifl::chain::detail
