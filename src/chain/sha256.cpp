#include "chain/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "chain/sha256_compress.hpp"
#include "util/config.hpp"

namespace fifl::chain {

namespace detail {

namespace {
constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

CompressFn select_compress() {
  const CompressFn shani = shani_compress();
  if (shani != nullptr && cpu_supports_shani() &&
      util::requested_isa() != util::IsaRequest::kScalar) {
    return shani;
  }
  return &compress_portable;
}
}  // namespace

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) {
      w[static_cast<std::size_t>(i)] =
          (static_cast<std::uint32_t>(data[i * 4]) << 24) |
          (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
          (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
          static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool cpu_supports_shani() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // SSE4.1: leaf 1, ECX bit 19. SHA: leaf 7 subleaf 0, EBX bit 29.
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & (1u << 19)) == 0) {
    return false;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

CompressFn active_compress() {
  static const CompressFn fn = select_compress();
  return fn;
}

const char* compress_name(CompressFn fn) noexcept {
  return fn != nullptr && fn == shani_compress() ? "shani" : "portable";
}

}  // namespace detail

Sha256::Sha256() : Sha256(detail::active_compress()) {}

Sha256::Sha256(detail::CompressFn compress) : compress_(compress) { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_bits_ = 0;
  finished_ = false;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (finished_) throw std::logic_error("Sha256: update after finish");
  if (data.empty()) return;
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    if (buffer_len_ < 64) return;
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
    p += take;
    n -= take;
  }
  // Every whole block of the input in one call, straight from the caller's
  // bytes.
  const std::size_t blocks = n / 64;
  if (blocks > 0) compress_(state_.data(), p, blocks);
  p += blocks * 64;
  n -= blocks * 64;
  if (n > 0) std::memcpy(buffer_.data(), p, n);
  buffer_len_ = n;
}

void Sha256::update(const std::string& s) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Sha256::finish() {
  if (finished_) throw std::logic_error("Sha256: finish called twice");
  finished_ = true;
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length — one
  // block, or two when fewer than 9 bytes are left in the buffered one.
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len = buffer_len_ < 56 ? 64 : 128;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<std::uint8_t>(total_bits_ >> (i * 8));
  }
  compress_(state_.data(), tail.data(), tail_len / 64);

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(const std::string& s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  return HmacSha256(key).tag(message);
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key)
    : HmacSha256(key, detail::active_compress()) {}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key,
                       detail::CompressFn compress)
    : inner_(compress), outer_(compress) {
  std::array<std::uint8_t, 64> key_block{};
  if (key.size() > 64) {
    Sha256 key_hash(compress);
    key_hash.update(key);
    const Digest kd = key_hash.finish();
    std::memcpy(key_block.data(), kd.data(), kd.size());
  } else if (!key.empty()) {  // an empty key's data() may be null
    std::memcpy(key_block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }
  inner_.update(std::span<const std::uint8_t>(ipad.data(), 64));
  outer_.update(std::span<const std::uint8_t>(opad.data(), 64));
}

Digest HmacSha256::tag(std::span<const std::uint8_t> message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(std::span<const std::uint8_t>(inner_digest.data(),
                                             inner_digest.size()));
  return outer.finish();
}

std::string to_hex(const Digest& d) {
  std::string out;
  out.reserve(64);
  append_hex(out, d);
  return out;
}

void append_hex(std::string& out, const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
}

}  // namespace fifl::chain
