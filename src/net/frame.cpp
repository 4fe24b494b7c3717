#include "net/frame.hpp"

#include <algorithm>
#include <array>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "net/crc32_backends.hpp"
#include "util/config.hpp"

namespace fifl::net {

namespace {

// Slicing-by-16 tables: kCrcTables[0] is the classic byte table for the
// reflected IEEE polynomial 0xEDB88320; kCrcTables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so one step folds 16
// input bytes with 16 independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         (static_cast<std::uint64_t>(load_u32le(p + 4)) << 32);
}

}  // namespace

namespace detail {

namespace {
Crc32Fn select_crc32() {
  const Crc32Fn clmul = clmul_crc32();
  if (clmul != nullptr && cpu_supports_clmul() &&
      util::requested_isa() != util::IsaRequest::kScalar) {
    return clmul;
  }
  return &crc32_table;
}
}  // namespace

std::uint32_t crc32_table(std::span<const std::uint8_t> data,
                          std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t w0 = load_u32le(p) ^ c;
    const std::uint32_t w1 = load_u32le(p + 4);
    const std::uint32_t w2 = load_u32le(p + 8);
    const std::uint32_t w3 = load_u32le(p + 12);
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
        t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
        t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
        t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
        t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool cpu_supports_clmul() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // Leaf 1, ECX: PCLMULQDQ is bit 1, SSE4.1 bit 19.
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & (1u << 1)) != 0 && (ecx & (1u << 19)) != 0;
#else
  return false;
#endif
}

Crc32Fn active_crc32() {
  static const Crc32Fn fn = select_crc32();
  return fn;
}

const char* crc32_name(Crc32Fn fn) noexcept {
  return fn != nullptr && fn == clmul_crc32() ? "clmul" : "table";
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return detail::active_crc32()(data, seed);
}

std::vector<std::uint8_t> encode_frame(std::uint8_t type, std::uint32_t from,
                                       std::span<const std::uint8_t> payload,
                                       const obs::TraceContext* trace) {
  if (payload.size() > kMaxPayload) {
    throw FrameError("encode_frame: payload exceeds kMaxPayload (" +
                     std::to_string(payload.size()) + " bytes)");
  }
  const bool traced = trace != nullptr && trace->valid();
  util::ByteWriter writer;
  writer.write_u32(kFrameMagic);
  writer.write_u8(kFrameVersion);
  writer.write_u8(type);
  writer.write_u8(traced ? static_cast<std::uint8_t>(kFrameFlagTrace) : 0);
  writer.write_u8(0);  // flags, high byte (reserved)
  writer.write_u32(from);
  writer.write_u32(static_cast<std::uint32_t>(payload.size()));
  writer.write_u32(0);  // CRC placeholder
  if (traced) {
    writer.write_u64(trace->trace_id);
    writer.write_u64(trace->span_id);
    writer.write_u64(trace->parent_span_id);
  }
  writer.write_bytes(payload);
  std::vector<std::uint8_t> out = writer.take();
  // CRC over [version .. header end) + extension + payload, skipping
  // magic and the CRC field itself.
  std::uint32_t crc = crc32(std::span(out).subspan(4, 12));
  crc = crc32(std::span(out).subspan(kFrameHeaderSize), crc);
  out[16] = static_cast<std::uint8_t>(crc & 0xFFu);
  out[17] = static_cast<std::uint8_t>((crc >> 8) & 0xFFu);
  out[18] = static_cast<std::uint8_t>((crc >> 16) & 0xFFu);
  out[19] = static_cast<std::uint8_t>((crc >> 24) & 0xFFu);
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  buffered_ += bytes.size();
  while (!error_) {
    if (!in_payload_) {
      const std::size_t take = std::min(head_need_ - head_size_, bytes.size());
      std::copy_n(bytes.begin(), take, head_.begin() + head_size_);
      head_size_ += take;
      bytes = bytes.subspan(take);
      if (head_size_ < head_need_) return;
      // A traced header raises head_need_ to stage the extension first.
      if (head_size_ == kFrameHeaderSize && !parse_header()) return;
      if (head_size_ < head_need_) continue;
      begin_payload();
    }
    const std::size_t take =
        std::min<std::size_t>(length_ - frame_.payload.size(), bytes.size());
    const auto piece = bytes.first(take);
    frame_.payload.insert(frame_.payload.end(), piece.begin(), piece.end());
    crc_ = crc32(piece, crc_);
    bytes = bytes.subspan(take);
    if (frame_.payload.size() < length_) return;
    end_frame();
    if (bytes.empty()) return;
  }
}

bool FrameDecoder::parse_header() {
  const std::uint8_t* h = head_.data();
  if (load_u32le(h) != kFrameMagic) {
    error_ = "frame: bad magic";
    return false;
  }
  if (h[4] != kFrameVersion) {
    error_ = "frame: unsupported version " + std::to_string(h[4]);
    return false;
  }
  const std::uint16_t flags = static_cast<std::uint16_t>(
      h[6] | (static_cast<std::uint16_t>(h[7]) << 8));
  if ((flags & ~kFrameFlagTrace) != 0) {
    error_ = "frame: nonzero reserved flags";
    return false;
  }
  length_ = load_u32le(h + 12);
  if (length_ > kMaxPayload) {
    error_ = "frame: payload length " + std::to_string(length_) +
             " exceeds limit";
    return false;
  }
  if ((flags & kFrameFlagTrace) != 0) head_need_ += kTraceExtSize;
  return true;
}

void FrameDecoder::begin_payload() {
  const std::uint8_t* h = head_.data();
  frame_ = Frame{};
  frame_.type = h[5];
  frame_.from = load_u32le(h + 8);
  if (head_need_ > kFrameHeaderSize) {
    frame_.has_trace = true;
    frame_.trace.trace_id = load_u64le(h + kFrameHeaderSize);
    frame_.trace.span_id = load_u64le(h + kFrameHeaderSize + 8);
    frame_.trace.parent_span_id = load_u64le(h + kFrameHeaderSize + 16);
  }
  frame_.payload.reserve(std::min<std::size_t>(length_, kEagerReserve));
  // CRC over [version .. header end) + extension, then the payload.
  crc_ = crc32(std::span(h + 4, 12));
  crc_ = crc32(std::span(h + kFrameHeaderSize, head_need_ - kFrameHeaderSize),
               crc_);
  in_payload_ = true;
}

void FrameDecoder::end_frame() {
  if (crc_ != load_u32le(head_.data() + 16)) {
    error_ = "frame: CRC mismatch";
    return;
  }
  ready_.push_back(std::move(frame_));
  head_size_ = 0;
  head_need_ = kFrameHeaderSize;
  in_payload_ = false;
}

std::optional<Frame> FrameDecoder::next() {
  if (ready_.empty()) {
    if (error_) throw FrameError(*error_);
    return std::nullopt;
  }
  Frame frame = std::move(ready_.front());
  ready_.pop_front();
  buffered_ -= kFrameHeaderSize + (frame.has_trace ? kTraceExtSize : 0) +
               frame.payload.size();
  return frame;
}

}  // namespace fifl::net
