// Frame codec: round-trips under arbitrary stream chunking, plus the
// malformed-input properties the transports rely on — every truncated or
// corrupted frame must end in FrameError or "need more bytes", never in a
// silently accepted message.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <new>

#include "net/crc32_backends.hpp"
#include "net/frame.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

/// The largest single operator-new request since the last reset: this
/// binary replaces the global allocation functions to observe what a
/// decoder reserves.
std::size_t g_largest_allocation = 0;

void* operator new(std::size_t size) {
  g_largest_allocation = std::max(g_largest_allocation, size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC flags free() in a replacement operator delete as mismatched with
// new, though the replacement operator new above mallocs.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace fifl::net {
namespace {

std::vector<std::uint8_t> random_payload(util::Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> payload(size);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
  }
  return payload;
}

/// The byte-at-a-time CRC-32 (IEEE, reflected 0xEDB88320, one table
/// lookup per byte) that `crc32` must equal on every input and seed.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data,
                             std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Frame, Crc32KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc32({p, s.size()}), 0xCBF43926u);
}

TEST(Frame, Crc32Chains) {
  util::Rng rng(7);
  const auto bytes = random_payload(rng, 300);
  const std::span<const std::uint8_t> all(bytes);
  const std::uint32_t whole = crc32(all);
  const std::uint32_t chained = crc32(all.subspan(100), crc32(all.first(100)));
  EXPECT_EQ(whole, chained);
}

TEST(Frame, Crc32MatchesBytewiseReference) {
  // Every length 0-300 at every start offset 0-15 (so each alignment of
  // a multi-byte step meets each tail length), each one also chained
  // across every split point.
  util::Rng rng(41);
  const auto bytes = random_payload(rng, 16 + 300);
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto data = all.subspan(offset, len);
      const std::uint32_t expected = crc32_bytewise(data);
      ASSERT_EQ(crc32(data), expected)
          << "offset " << offset << " length " << len;
      for (std::size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(crc32(data.subspan(split), crc32(data.first(split))),
                  expected)
            << "offset " << offset << " length " << len << " split "
            << split;
      }
    }
  }
  // One buffer the size of a data-plane frame (a LeNet upload).
  const auto large = random_payload(rng, 280 * 1024 + 7);
  EXPECT_EQ(crc32(large), crc32_bytewise(large));
  EXPECT_EQ(crc32(large, 0x12345678u), crc32_bytewise(large, 0x12345678u));
}

// ---- CRC-32 backends ------------------------------------------------------
// Each backend is called directly through the private header, so neither
// can hide behind the one the process selected.

enum class Crc32Kind { kTable, kClmul };

class Crc32Backend : public ::testing::TestWithParam<Crc32Kind> {
 protected:
  void SetUp() override {
    if (GetParam() != Crc32Kind::kClmul) return;
    if (detail::clmul_crc32() == nullptr) {
      GTEST_SKIP() << "this build has no carry-less-multiply CRC";
    }
    if (!detail::cpu_supports_clmul()) {
      GTEST_SKIP() << "the CPU lacks PCLMULQDQ or SSE4.1";
    }
  }

  std::uint32_t crc(std::span<const std::uint8_t> data,
                    std::uint32_t seed) const {
    return GetParam() == Crc32Kind::kClmul ? detail::clmul_crc32()(data, seed)
                                           : detail::crc32_table(data, seed);
  }

  /// 0, all ones, and one drawn from a fixed stream.
  static std::array<std::uint32_t, 3> seeds() {
    util::Rng rng(2027);
    return {0u, 0xFFFFFFFFu, static_cast<std::uint32_t>(rng.next() >> 32)};
  }
};

TEST_P(Crc32Backend, EveryLengthOffsetAndSplitTo300) {
  // Every length 0-300 at every start offset 0-15 crosses the folding
  // backend's 64-byte threshold, each 16-byte block count and each 0-15
  // byte tail at each alignment; every split point chains the two halves
  // through the seed.
  util::Rng rng(43);
  const auto bytes = random_payload(rng, 16 + 300);
  const std::span<const std::uint8_t> all(bytes);
  for (const std::uint32_t seed : seeds()) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 300; ++len) {
        const auto data = all.subspan(offset, len);
        const std::uint32_t expected = crc32_bytewise(data, seed);
        ASSERT_EQ(crc(data, seed), expected)
            << "seed " << seed << " offset " << offset << " length " << len;
        for (std::size_t split = 0; split <= len; ++split) {
          ASSERT_EQ(crc(data.subspan(split), crc(data.first(split), seed)),
                    expected)
              << "seed " << seed << " offset " << offset << " length " << len
              << " split " << split;
        }
      }
    }
  }
}

TEST_P(Crc32Backend, DataPlaneSizedBuffersMatchBytewise) {
  // θ's 279,880 B (a cluster_tcp broadcast or upload) and 1 MiB, whole and
  // chained across a split inside a 64-byte step.
  util::Rng rng(44);
  for (const std::size_t size : {std::size_t{279880}, std::size_t{1} << 20}) {
    const auto buffer = random_payload(rng, size);
    const std::span<const std::uint8_t> all(buffer);
    for (const std::uint32_t seed : seeds()) {
      const std::uint32_t expected = crc32_bytewise(all, seed);
      EXPECT_EQ(crc(all, seed), expected) << "size " << size;
      const std::size_t split = size / 2 + 37;
      EXPECT_EQ(crc(all.subspan(split), crc(all.first(split), seed)), expected)
          << "size " << size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Crc32, Crc32Backend,
                         ::testing::Values(Crc32Kind::kTable,
                                           Crc32Kind::kClmul),
                         [](const ::testing::TestParamInfo<Crc32Kind>& p) {
                           return p.param == Crc32Kind::kClmul
                                      ? std::string("Clmul")
                                      : std::string("Table");
                         });

TEST(Crc32Selection, FollowsCpuidAndTheScalarOverride) {
  const detail::Crc32Fn active = detail::active_crc32();
  EXPECT_EQ(active, detail::active_crc32());  // resolved once, stable
  const bool clmul_ok =
      detail::clmul_crc32() != nullptr && detail::cpu_supports_clmul();
  if (clmul_ok && util::requested_isa() != util::IsaRequest::kScalar) {
    EXPECT_EQ(active, detail::clmul_crc32());
    EXPECT_STREQ(detail::crc32_name(active), "clmul");
  } else {
    EXPECT_EQ(active, &detail::crc32_table);
    EXPECT_STREQ(detail::crc32_name(active), "table");
  }
  // net::crc32 is the selected backend.
  util::Rng rng(45);
  const auto bytes = random_payload(rng, 4099);
  EXPECT_EQ(crc32(bytes, 7u), active(bytes, 7u));
}

TEST(Frame, RoundTripWholeBuffer) {
  util::Rng rng(11);
  const auto payload = random_payload(rng, 1000);
  const auto wire = encode_frame(5, 42, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  FrameDecoder decoder;
  decoder.feed(wire);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 5);
  EXPECT_EQ(frame->from, 42u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, RoundTripEmptyPayload) {
  const auto wire = encode_frame(1, 0, {});
  FrameDecoder decoder;
  decoder.feed(wire);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
}

/// Feeds `bytes` in chunks of `chunk_size()` bytes, appending every
/// complete frame to `decoded` after each feed; a FrameError propagates
/// with the frames decoded before it kept.
void decode_chunked(std::span<const std::uint8_t> bytes,
                    const std::function<std::size_t()>& chunk_size,
                    std::vector<Frame>& decoded) {
  FrameDecoder decoder;
  std::size_t cursor = 0;
  while (cursor < bytes.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(bytes.size() - cursor, chunk_size());
    decoder.feed(bytes.subspan(cursor, chunk));
    cursor += chunk;
    while (auto frame = decoder.next()) decoded.push_back(std::move(*frame));
  }
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, RoundTripUnderRandomChunking) {
  util::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> stream;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (int f = 0; f < 5; ++f) {
      payloads.push_back(random_payload(rng, 1 + static_cast<std::size_t>(
                                                    rng.uniform(0.0, 200.0))));
      const auto wire = encode_frame(static_cast<std::uint8_t>(f + 1),
                                     static_cast<std::uint32_t>(f), payloads[f]);
      stream.insert(stream.end(), wire.begin(), wire.end());
    }

    std::vector<Frame> decoded;
    decode_chunked(
        stream,
        [&rng] { return 1 + static_cast<std::size_t>(rng.uniform(0.0, 37.0)); },
        decoded);
    ASSERT_EQ(decoded.size(), payloads.size());
    for (std::size_t f = 0; f < payloads.size(); ++f) {
      EXPECT_EQ(decoded[f].from, f);
      EXPECT_EQ(decoded[f].payload, payloads[f]);
    }
  }
}

/// A stream of ≈280 KB frames (a worker's upload) interleaved with small
/// control frames, every third one traced, plus the payloads it carries.
struct DataPlaneStream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::size_t> payload_offsets;  // where each payload starts
};

DataPlaneStream data_plane_stream(util::Rng& rng) {
  DataPlaneStream stream;
  for (std::uint32_t f = 0; f < 10; ++f) {
    const std::size_t size =
        f % 2 == 0
            ? 280'000 + static_cast<std::size_t>(rng.uniform(0.0, 1000.0))
            : 1 + static_cast<std::size_t>(rng.uniform(0.0, 200.0));
    stream.payloads.push_back(random_payload(rng, size));
    const obs::TraceContext ctx{5, 100 + f, 0};
    const auto wire = encode_frame(static_cast<std::uint8_t>(1 + f % 7), f,
                                   stream.payloads.back(),
                                   f % 3 == 0 ? &ctx : nullptr);
    stream.payload_offsets.push_back(stream.bytes.size() + wire.size() -
                                     size);
    stream.bytes.insert(stream.bytes.end(), wire.begin(), wire.end());
  }
  return stream;
}

/// The TCP reader's 16 KB reads, and random 1-40,000-byte reads.
std::vector<std::function<std::size_t()>> data_plane_chunkings(
    util::Rng& rng) {
  return {
      [] { return std::size_t{16384}; },
      [&rng] {
        return 1 + static_cast<std::size_t>(rng.uniform(0.0, 40000.0));
      },
  };
}

TEST(Frame, DataPlaneFramesSurviveChunkingAndCompaction) {
  // Each large payload is assembled in place from many reads and
  // checksummed piece by piece; the small frames share reads with the
  // large ones' heads and tails.
  util::Rng rng(43);
  const DataPlaneStream stream = data_plane_stream(rng);
  const auto chunkings = data_plane_chunkings(rng);
  for (std::size_t c = 0; c < chunkings.size(); ++c) {
    std::vector<Frame> decoded;
    decode_chunked(stream.bytes, chunkings[c], decoded);
    ASSERT_EQ(decoded.size(), stream.payloads.size()) << "chunking " << c;
    for (std::size_t f = 0; f < decoded.size(); ++f) {
      EXPECT_EQ(decoded[f].from, f) << "chunking " << c;
      EXPECT_EQ(decoded[f].type, static_cast<std::uint8_t>(1 + f % 7))
          << "chunking " << c;
      EXPECT_EQ(decoded[f].has_trace, f % 3 == 0) << "chunking " << c;
      EXPECT_EQ(decoded[f].payload, stream.payloads[f])
          << "chunking " << c << " frame " << f;
    }
  }
}

TEST(Frame, FlipDeepInLargeFrameIsRejected) {
  // One flipped byte 200,000 bytes into the seventh frame's payload (a
  // large frame, reached only after compaction): every frame before it
  // decodes, then the decoder throws.
  util::Rng rng(47);
  DataPlaneStream stream = data_plane_stream(rng);
  const std::size_t victim = 6;
  stream.bytes[stream.payload_offsets[victim] + 200'000] ^= 0x04;
  const auto chunkings = data_plane_chunkings(rng);
  for (std::size_t c = 0; c < chunkings.size(); ++c) {
    std::vector<Frame> decoded;
    EXPECT_THROW(decode_chunked(stream.bytes, chunkings[c], decoded),
                 FrameError)
        << "chunking " << c;
    ASSERT_EQ(decoded.size(), victim) << "chunking " << c;
    for (std::size_t f = 0; f < victim; ++f) {
      EXPECT_EQ(decoded[f].payload, stream.payloads[f])
          << "chunking " << c << " frame " << f;
    }
  }
}

TEST(Frame, EveryTruncationYieldsNoFrame) {
  util::Rng rng(17);
  const auto payload = random_payload(rng, 64);
  const auto wire = encode_frame(6, 9, payload);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder;
    decoder.feed(std::span(wire).first(len));
    // A strict prefix can never produce a frame: either the decoder waits
    // for more bytes or (corrupting nothing) keeps waiting.
    std::optional<Frame> frame;
    EXPECT_NO_THROW(frame = decoder.next()) << "prefix length " << len;
    EXPECT_FALSE(frame.has_value()) << "prefix length " << len;
  }
}

TEST(Frame, EverySingleByteFlipIsRejected) {
  util::Rng rng(19);
  const auto payload = random_payload(rng, 48);
  const auto wire = encode_frame(7, 3, payload);
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      auto corrupted = wire;
      corrupted[pos] = static_cast<std::uint8_t>(corrupted[pos] ^ (1u << bit));
      FrameDecoder decoder;
      decoder.feed(corrupted);
      // Everything but the length field is CRC-protected or checked
      // directly, so the flip must throw; a flip that grows the length
      // field may instead leave the decoder waiting for bytes that never
      // come. Both outcomes are safe; delivering a frame is not.
      try {
        const auto frame = decoder.next();
        EXPECT_FALSE(frame.has_value())
            << "flip at byte " << pos << " bit " << int(bit)
            << " produced a frame";
      } catch (const FrameError&) {
        // expected for the vast majority of flips
      }
    }
  }
}

TEST(Frame, OversizedLengthFieldThrows) {
  auto wire = encode_frame(2, 1, std::vector<std::uint8_t>(8, 0xab));
  // Length field lives at bytes [12, 16); write kMaxPayload + 1.
  const std::uint32_t bad = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    wire[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bad >> (8 * i));
  }
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.next(), FrameError);
}

TEST(Frame, CorruptLengthAllocatesBoundedBeforeItsBytes) {
  // A header claiming kMaxPayload (256 MB) followed by a few payload bytes
  // reserves at most kEagerReserve, and the decoder just waits.
  auto wire = encode_frame(2, 1, std::vector<std::uint8_t>(64, 0xab));
  for (int i = 0; i < 4; ++i) {
    wire[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(kMaxPayload >> (8 * i));
  }
  FrameDecoder decoder;
  g_largest_allocation = 0;
  decoder.feed(wire);
  const std::size_t largest = g_largest_allocation;
  EXPECT_LE(largest, FrameDecoder::kEagerReserve);
  EXPECT_GT(largest, 0u);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), wire.size());
}

TEST(Frame, RandomGarbageNeverDecodes) {
  util::Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const auto garbage = random_payload(
        rng, 1 + static_cast<std::size_t>(rng.uniform(0.0, 128.0)));
    FrameDecoder decoder;
    decoder.feed(garbage);
    try {
      const auto frame = decoder.next();
      // A frame from random bytes would need a valid magic AND a valid
      // CRC — astronomically unlikely; treat it as a failure.
      EXPECT_FALSE(frame.has_value());
    } catch (const FrameError&) {
    }
  }
}

TEST(Frame, RejectsOversizedPayloadAtEncode) {
  EXPECT_THROW(
      encode_frame(1, 0, std::vector<std::uint8_t>(kMaxPayload + 1, 0)),
      FrameError);
}

TEST(Frame, TraceContextRoundTrips) {
  util::Rng rng(29);
  const auto payload = random_payload(rng, 96);
  const obs::TraceContext ctx{7, (9ull << 40) | 123, (1ull << 40) | 7};
  const auto wire = encode_frame(4, 8, payload, &ctx);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + kTraceExtSize + payload.size());

  FrameDecoder decoder;
  decoder.feed(wire);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 4);
  EXPECT_EQ(frame->from, 8u);
  EXPECT_TRUE(frame->has_trace);
  EXPECT_EQ(frame->trace, ctx);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, UntracedWireBytesAreLegacyIdentical) {
  // Sending with trace == nullptr must produce byte-for-byte the frame an
  // old peer expects: no flag bit, no extension, same CRC.
  util::Rng rng(31);
  const auto payload = random_payload(rng, 64);
  const auto legacy = encode_frame(5, 3, payload);
  const auto untraced = encode_frame(5, 3, payload, nullptr);
  EXPECT_EQ(legacy, untraced);

  FrameDecoder decoder;
  decoder.feed(untraced);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->has_trace);
  EXPECT_EQ(frame->trace, obs::TraceContext{});
}

TEST(Frame, TracedFrameSurvivesChunkingAndFlipRejection) {
  util::Rng rng(37);
  const auto payload = random_payload(rng, 40);
  const obs::TraceContext ctx{2, 99, 0};
  const auto wire = encode_frame(6, 1, payload, &ctx);

  // Byte-at-a-time feed must still deliver exactly one traced frame.
  FrameDecoder slow;
  std::vector<Frame> decoded;
  for (const std::uint8_t b : wire) {
    slow.feed(std::span(&b, 1));
    while (auto f = slow.next()) decoded.push_back(std::move(*f));
  }
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(decoded[0].has_trace);
  EXPECT_EQ(decoded[0].trace, ctx);

  // The extension rides inside the CRC: every single-bit flip in the
  // trace bytes must be rejected, never mis-delivered as a clean frame.
  for (std::size_t pos = kFrameHeaderSize;
       pos < kFrameHeaderSize + kTraceExtSize; ++pos) {
    auto corrupted = wire;
    corrupted[pos] = static_cast<std::uint8_t>(corrupted[pos] ^ 0x10);
    FrameDecoder decoder;
    decoder.feed(corrupted);
    EXPECT_THROW(decoder.next(), FrameError) << "flip at byte " << pos;
  }
}

TEST(Frame, UnknownFlagBitsAreRejected) {
  auto wire = encode_frame(3, 2, std::vector<std::uint8_t>(8, 0x5a));
  wire[6] = 0x02;  // flags low byte: an undefined bit
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.next(), FrameError);
}

}  // namespace
}  // namespace fifl::net
