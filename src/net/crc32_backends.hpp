// CRC-32 backends behind net::crc32. Private to src/net, its tests and the
// net micro benchmark: callers outside checksum through net::crc32, which
// uses the backend selected once per process.
//
// Every backend computes the same function (IEEE 802.3 polynomial,
// reflected 0xEDB88320, the seed chaining of net::crc32), so a frame's
// bytes are the same whichever one runs. The slicing-by-16 table loop is
// the reference and the fallback; the carry-less-multiply one is built
// from its own TU (crc32_clmul.cpp, the only one compiled with -mpclmul
// -msse4.1) and is entered only after CPUID confirmed both features.
#pragma once

#include <cstdint>
#include <span>

namespace fifl::net::detail {

/// A whole CRC-32 with net::crc32's contract: crc32(b, crc32(a)) ==
/// crc32(a ++ b).
using Crc32Fn = std::uint32_t (*)(std::span<const std::uint8_t> data,
                                  std::uint32_t seed);

/// Slicing-by-16 table CRC: always built, the reference for the others.
std::uint32_t crc32_table(std::span<const std::uint8_t> data,
                          std::uint32_t seed);

/// The PCLMULQDQ folding CRC, or nullptr when the compiler could not build
/// it. It folds whole 16-byte blocks of inputs of 64 bytes and more, and
/// leaves shorter inputs and the last 0-15 bytes to crc32_table.
Crc32Fn clmul_crc32() noexcept;

/// True iff the running CPU reports PCLMULQDQ and SSE4.1.
bool cpu_supports_clmul() noexcept;

/// Backend resolved once per process: the folding one when the build has
/// it, CPUID reports it and FIFL_KERNEL_ISA is not `scalar`; otherwise the
/// table.
Crc32Fn active_crc32();

/// "clmul" or "table".
const char* crc32_name(Crc32Fn fn) noexcept;

}  // namespace fifl::net::detail
