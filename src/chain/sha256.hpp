// From-scratch SHA-256 (FIPS 180-4) used by the audit ledger for block
// hashes, Merkle trees, and HMAC signatures. Streaming interface so large
// records hash without buffering.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace fifl::chain {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(const std::string& s);
  /// Finalises and returns the digest; the object must be reset() before
  /// reuse.
  Digest finish();

 private:
  void process_block(const std::uint8_t* block);

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

  Digest tag(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

std::string to_hex(const Digest& d);

}  // namespace fifl::chain
