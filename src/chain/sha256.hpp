// SHA-256 (FIPS 180-4) used by the audit ledger for block hashes, Merkle
// trees and HMAC signatures, and by the networked runtime for its per-round
// θ digest. Streaming interface so large records hash without buffering.
// The compression function runs on the CPU's SHA extensions where CPUID
// reports them and on a portable implementation elsewhere; both give the
// same digests (chain/sha256_compress.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace fifl::chain {

using Digest = std::array<std::uint8_t, 32>;

namespace detail {
/// One compression backend (chain/sha256_compress.hpp): runs `blocks`
/// 64-byte blocks through the SHA-256 compression function.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);
}  // namespace detail

class Sha256 {
 public:
  /// Hashes with the compression selected once per process.
  Sha256();
  /// Hashes with `compress`: the tests and the micro benchmark compare the
  /// backends through this.
  explicit Sha256(detail::CompressFn compress);

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(const std::string& s);
  /// Finalises and returns the digest; the object must be reset() before
  /// reuse.
  Digest finish();

 private:
  detail::CompressFn compress_;
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finished_ = false;
};

/// One-shot helpers.
Digest sha256(std::span<const std::uint8_t> data);
Digest sha256(const std::string& s);

/// HMAC-SHA256 (RFC 2104) — the primitive behind our keyed signatures.
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message);

/// HMAC-SHA256 under one fixed key. The hash states that follow the ipad
/// and opad blocks are computed once and copied by every tag(), so a short
/// message costs two compressions instead of four.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);
  /// Tags with the `compress` backend (see Sha256(detail::CompressFn)).
  HmacSha256(std::span<const std::uint8_t> key, detail::CompressFn compress);

  Digest tag(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

std::string to_hex(const Digest& d);
/// Appends to_hex(d) to `out` without a temporary string.
void append_hex(std::string& out, const Digest& d);

}  // namespace fifl::chain
