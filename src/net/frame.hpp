// Wire framing for fifl::net: every message travels as one length-prefixed
// frame so a byte stream (TCP) or a queue (loopback) can be cut back into
// messages without ambiguity.
//
//   offset  size  field
//   0       4     magic 0x54454E46 ("FNET", little-endian)
//   4       1     version (kFrameVersion)
//   5       1     message type (net::MessageType)
//   6       2     flags (bit 0 = trace extension present; rest reserved 0)
//   8       4     sender node key
//   12      4     payload length (bounded by kMaxPayload)
//   16      4     CRC32 (IEEE) over bytes [4, 16) + extension + payload
//   20      24    trace extension, only when flags bit 0 is set:
//                 trace_id / span_id / parent_span_id as three u64 LE
//   20|44   len   payload (a util::ByteWriter-encoded message body)
//
// The length field counts payload bytes only, so a frame without the
// trace extension is byte-identical to the pre-tracing wire format, and
// a peer that negotiated tracing off in Join never sees the flag bit.
// The CRC covers everything after the magic, so any single corrupted byte
// in header fields, extension, or payload is detected; a corrupted magic
// fails the magic check itself. Decoding is incremental
// (FrameDecoder::feed) and every malformed input makes next() throw
// FrameError — a SerializeError subclass, so one catch handles both
// framing and payload decode failures. A decoder that has thrown is
// poisoned: the stream has lost sync and the caller is expected to drop
// the connection, mirroring what the TCP transport does.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "util/serialize.hpp"

namespace fifl::net {

inline constexpr std::uint32_t kFrameMagic = 0x54454E46u;  // "FNET"
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 20;
/// Flag bit 0: the 24-byte trace-context extension follows the header.
inline constexpr std::uint16_t kFrameFlagTrace = 0x0001u;
inline constexpr std::size_t kTraceExtSize = 24;
/// Upper bound on a single payload; anything larger is a corrupt length
/// field, not a real message (a LeNet gradient is ~250 KB).
inline constexpr std::uint32_t kMaxPayload = 1u << 28;

class FrameError : public util::SerializeError {
 public:
  using util::SerializeError::SerializeError;
};

/// CRC32 (IEEE 802.3 polynomial, reflected). `seed` chains partial
/// computations: crc32(b, crc32(a)) == crc32(a ++ b). Runs on the backend
/// selected once per process (carry-less multiply where the build and CPU
/// have it, else slicing-by-16 tables); every backend returns the same
/// value.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

struct Frame {
  std::uint8_t type = 0;
  std::uint32_t from = 0;
  std::vector<std::uint8_t> payload;
  /// Trace context from the optional frame extension; has_trace mirrors
  /// flag bit 0 (trace fields are zero when absent).
  bool has_trace = false;
  obs::TraceContext trace;
};

/// Serializes one frame (header [+ trace extension] + payload) ready for
/// the wire. `trace` == nullptr (or an invalid context) produces the
/// legacy layout bit-for-bit — tracing off never changes a wire byte.
std::vector<std::uint8_t> encode_frame(std::uint8_t type, std::uint32_t from,
                                       std::span<const std::uint8_t> payload,
                                       const obs::TraceContext* trace = nullptr);

/// Incremental frame parser over an arbitrary chunking of the byte stream.
/// Each payload byte is copied once, from the fed span straight into the
/// payload vector of the frame it belongs to, and checksummed on the way;
/// only header and trace-extension bytes are staged. Before its bytes
/// arrive a frame's payload reserves at most kEagerReserve bytes, so a
/// corrupt length field costs no more than that ahead of the CRC check.
class FrameDecoder {
 public:
  /// Payload capacity reserved when a header is parsed: the whole payload
  /// up to this size (every message the runtime sends; a LeNet upload is
  /// ~280 KB), so it fills without reallocating. A longer payload grows
  /// with its bytes.
  static constexpr std::size_t kEagerReserve = std::size_t{1} << 20;

  /// Consumes raw bytes received from the wire. Never throws: a malformed
  /// frame poisons the decoder, and next() reports it once the frames
  /// before it are taken.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete frame, or nullopt if more bytes are
  /// needed. Throws FrameError on bad magic/version/flags, an oversized
  /// length field, or a CRC mismatch.
  std::optional<Frame> next();

  /// Bytes fed but not yet returned as frames.
  std::size_t buffered() const noexcept { return buffered_; }

 private:
  /// Validates the 20 staged header bytes; records the error and returns
  /// false on a malformed header.
  bool parse_header();
  /// Starts the payload of the frame whose header (and extension) is
  /// staged: copies the header fields into frame_ and seeds the CRC.
  void begin_payload();
  /// Checks the finished frame's CRC and queues it.
  void end_frame();

  std::array<std::uint8_t, kFrameHeaderSize + kTraceExtSize> head_{};
  std::size_t head_size_ = 0;                 // staged bytes of head_
  std::size_t head_need_ = kFrameHeaderSize;  // + kTraceExtSize if traced
  bool in_payload_ = false;
  std::uint32_t length_ = 0;
  std::uint32_t crc_ = 0;
  Frame frame_;  // the frame being assembled
  std::deque<Frame> ready_;
  std::optional<std::string> error_;  // sticky: the stream lost sync
  std::size_t buffered_ = 0;
};

}  // namespace fifl::net
