#include "util/serialize.hpp"

#include <bit>
#include <cstring>
#include <fstream>

namespace fifl::util {

namespace {
// The on-disk format is little-endian; byte-swap on big-endian hosts.
template <typename T>
T to_little_endian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out;
    auto* src = reinterpret_cast<const std::uint8_t*>(&v);
    auto* dst = reinterpret_cast<std::uint8_t*>(&out);
    for (std::size_t i = 0; i < sizeof(T); ++i) dst[i] = src[sizeof(T) - 1 - i];
    return out;
  }
  return v;
}
}  // namespace

void ByteWriter::write_u8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::write_u32(std::uint32_t v) {
  v = to_little_endian(v);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&v);
  buffer_.insert(buffer_.end(), bytes, bytes + sizeof v);
}

void ByteWriter::write_u64(std::uint64_t v) {
  v = to_little_endian(v);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&v);
  buffer_.insert(buffer_.end(), bytes, bytes + sizeof v);
}

void ByteWriter::write_f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  write_u32(bits);
}

void ByteWriter::write_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  write_u64(bits);
}

void ByteWriter::write_string(const std::string& s) {
  write_u64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteWriter::write_f32_array(std::span<const float> xs) {
  write_u64(xs.size());
  if constexpr (std::endian::native == std::endian::little) {
    // The host layout is the wire layout: one bulk copy.
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(xs.data());
    buffer_.insert(buffer_.end(), bytes, bytes + xs.size_bytes());
  } else {
    for (float x : xs) write_f32(x);
  }
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw SerializeError("cannot open for writing: " + path);
  f.write(reinterpret_cast<const char*>(buffer_.data()),
          static_cast<std::streamsize>(buffer_.size()));
  if (!f) throw SerializeError("write failed: " + path);
}

std::vector<std::uint8_t> ByteReader::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw SerializeError("cannot open for reading: " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(data.data()), size);
  if (!f) throw SerializeError("read failed: " + path);
  return data;
}

void ByteReader::require(std::size_t n) const {
  // Compare against the remaining byte count instead of computing
  // cursor_ + n, which can wrap for attacker-controlled n (a corrupted
  // length prefix near SIZE_MAX) and make the check pass.
  if (n > data_.size() - cursor_) {
    throw SerializeError("truncated input: need " + std::to_string(n) +
                         " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[cursor_++];
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v;
  std::memcpy(&v, data_.data() + cursor_, sizeof v);
  cursor_ += sizeof v;
  return to_little_endian(v);
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v;
  std::memcpy(&v, data_.data() + cursor_, sizeof v);
  cursor_ += sizeof v;
  return to_little_endian(v);
}

float ByteReader::read_f32() {
  const std::uint32_t bits = read_u32();
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double ByteReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::read_string() {
  const std::uint64_t n = read_u64();
  require(static_cast<std::size_t>(n));
  std::string s(reinterpret_cast<const char*>(data_.data() + cursor_),
                static_cast<std::size_t>(n));
  cursor_ += static_cast<std::size_t>(n);
  return s;
}

std::vector<float> ByteReader::read_f32_array() {
  const std::uint64_t n = read_u64();
  // Guard the element-count multiply: a corrupted count near 2^64 would
  // overflow n * 4 to a small value, pass require(), and then crash in
  // the vector allocation. Remaining bytes bound the plausible count.
  if (n > remaining() / sizeof(float)) {
    throw SerializeError("truncated input: f32 array claims " +
                         std::to_string(n) + " elements, only " +
                         std::to_string(remaining()) + " bytes remain");
  }
  std::vector<float> xs(static_cast<std::size_t>(n));
  if constexpr (std::endian::native == std::endian::little) {
    // The wire layout is the host layout: one bulk copy.
    const std::size_t bytes = xs.size() * sizeof(float);
    if (bytes != 0) std::memcpy(xs.data(), data_.data() + cursor_, bytes);
    cursor_ += bytes;
  } else {
    for (auto& x : xs) x = read_f32();
  }
  return xs;
}

std::vector<std::uint8_t> ByteReader::read_bytes(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                                data_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
  cursor_ += n;
  return out;
}

}  // namespace fifl::util
