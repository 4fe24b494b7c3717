#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

namespace fifl::util {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_f32(3.14f);
  w.write_f64(-2.718281828);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.14f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.718281828);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter w;
  w.write_string("hello, fifl");
  w.write_string("");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_string(), "hello, fifl");
  EXPECT_EQ(r.read_string(), "");
}

TEST(Serialize, FloatArrayRoundTrip) {
  ByteWriter w;
  const std::vector<float> xs{1.0f, -2.5f, 1e-30f, 1e30f};
  w.write_f32_array(xs);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_f32_array(), xs);
}

TEST(Serialize, SpecialFloatsPreserveBits) {
  ByteWriter w;
  w.write_f32(std::numeric_limits<float>::quiet_NaN());
  w.write_f32(std::numeric_limits<float>::infinity());
  w.write_f32(-0.0f);
  ByteReader r(w.buffer());
  EXPECT_TRUE(std::isnan(r.read_f32()));
  EXPECT_TRUE(std::isinf(r.read_f32()));
  const float neg_zero = r.read_f32();
  EXPECT_EQ(std::signbit(neg_zero), true);
}

/// The wire form of a u64 count followed by `bits` as f32 words, built one
/// little-endian byte at a time.
std::vector<std::uint8_t> f32_array_reference(
    const std::vector<std::uint32_t>& bits) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(bits.size()) >> (8 * i)));
  }
  for (const std::uint32_t word : bits) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
  }
  return out;
}

TEST(Serialize, FloatArrayKeepsEveryBitPattern) {
  const std::vector<std::vector<std::uint32_t>> cases{
      {
          0x7FC00000u, 0x7FC12345u, 0xFFEDCBA9u,  // quiet NaNs, payload bits
          0x7F800001u, 0x7FA5A5A5u, 0xFF800123u,  // signalling NaNs
          0x00000000u, 0x80000000u,               // +0, -0
          0x7F800000u, 0xFF800000u,               // +inf, -inf
          0x00000001u, 0x007FFFFFu, 0x80400000u,  // subnormals
          0x3F800000u, 0xC0490FDBu, 0x12345678u,  // normal values
      },
      {},  // an empty array
  };
  for (const auto& bits : cases) {
    std::vector<float> xs;
    for (const std::uint32_t word : bits) {
      xs.push_back(std::bit_cast<float>(word));
    }

    // A leading byte puts the array at an odd offset in the buffer.
    ByteWriter w;
    w.write_u8(0xA5);
    w.write_f32_array(xs);
    std::vector<std::uint8_t> expected{0xA5};
    const auto reference = f32_array_reference(bits);
    expected.insert(expected.end(), reference.begin(), reference.end());
    EXPECT_EQ(w.buffer(), expected) << bits.size() << " elements";

    ByteReader r(w.buffer());
    EXPECT_EQ(r.read_u8(), 0xA5);
    std::vector<std::uint32_t> back_bits;
    for (const float x : r.read_f32_array()) {
      back_bits.push_back(std::bit_cast<std::uint32_t>(x));
    }
    EXPECT_EQ(back_bits, bits);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Serialize, TruncatedReadThrows) {
  ByteWriter w;
  w.write_u32(7);
  ByteReader r(w.buffer());
  (void)r.read_u32();
  EXPECT_THROW((void)r.read_u8(), SerializeError);
}

TEST(Serialize, TruncatedArrayThrows) {
  ByteWriter w;
  w.write_u64(1000);  // claims 1000 floats, provides none
  ByteReader r(w.buffer());
  EXPECT_THROW((void)r.read_f32_array(), SerializeError);
}

TEST(Serialize, TruncatedStringThrows) {
  ByteWriter w;
  w.write_u64(50);
  w.write_u8('x');
  ByteReader r(w.buffer());
  EXPECT_THROW((void)r.read_string(), SerializeError);
}

TEST(Serialize, RemainingTracksCursor) {
  ByteWriter w;
  w.write_u32(1);
  w.write_u32(2);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.read_u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "fifl_serialize_test.bin";
  ByteWriter w;
  w.write_string("persisted");
  w.save(path);
  const auto bytes = ByteReader::load(path);
  ByteReader r(bytes);
  EXPECT_EQ(r.read_string(), "persisted");
  std::remove(path.c_str());
}

TEST(Serialize, FileErrorsThrow) {
  ByteWriter w;
  EXPECT_THROW(w.save("/nonexistent_zzz/f.bin"), SerializeError);
  EXPECT_THROW((void)ByteReader::load("/nonexistent_zzz/f.bin"), SerializeError);
}

TEST(Serialize, ReadBytesExact) {
  ByteWriter w;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  w.write_bytes(payload);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_bytes(4), payload);
  EXPECT_THROW((void)r.read_bytes(1), SerializeError);
}

}  // namespace
}  // namespace fifl::util
