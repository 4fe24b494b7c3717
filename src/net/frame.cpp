#include "net/frame.hpp"

#include <array>
#include <cstring>
#include <string>

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

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
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
  // Compact lazily: once the consumed prefix dominates, shift the tail
  // down so the buffer does not grow without bound on long connections.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameDecoder::next() {
  if (buffered() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* h = buffer_.data() + consumed_;
  if (load_u32le(h) != kFrameMagic) {
    throw FrameError("frame: bad magic");
  }
  if (h[4] != kFrameVersion) {
    throw FrameError("frame: unsupported version " + std::to_string(h[4]));
  }
  const std::uint16_t flags = static_cast<std::uint16_t>(
      h[6] | (static_cast<std::uint16_t>(h[7]) << 8));
  if ((flags & ~kFrameFlagTrace) != 0) {
    throw FrameError("frame: nonzero reserved flags");
  }
  const bool traced = (flags & kFrameFlagTrace) != 0;
  const std::size_t ext = traced ? kTraceExtSize : 0;
  const std::uint32_t length = load_u32le(h + 12);
  if (length > kMaxPayload) {
    throw FrameError("frame: payload length " + std::to_string(length) +
                     " exceeds limit");
  }
  if (buffered() < kFrameHeaderSize + ext + length) return std::nullopt;
  const std::uint32_t stored_crc = load_u32le(h + 16);
  std::uint32_t crc = crc32(std::span(h + 4, 12));
  crc = crc32(std::span(h + kFrameHeaderSize, ext + length), crc);
  if (crc != stored_crc) {
    throw FrameError("frame: CRC mismatch");
  }
  Frame frame;
  frame.type = h[5];
  frame.from = load_u32le(h + 8);
  if (traced) {
    frame.has_trace = true;
    frame.trace.trace_id = load_u64le(h + kFrameHeaderSize);
    frame.trace.span_id = load_u64le(h + kFrameHeaderSize + 8);
    frame.trace.parent_span_id = load_u64le(h + kFrameHeaderSize + 16);
  }
  const std::uint8_t* body = h + kFrameHeaderSize + ext;
  frame.payload.assign(body, body + length);
  consumed_ += kFrameHeaderSize + ext + length;
  return frame;
}

}  // namespace fifl::net
