#include "chain/sha256.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "chain/sha256_compress.hpp"
#include "util/rng.hpp"

namespace fifl::chain {
namespace {

std::string hex_of(const std::string& s) { return to_hex(sha256(s)); }

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactlyOneBlock64Bytes) {
  const std::string m(64, 'a');
  EXPECT_EQ(hex_of(m),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShot) {
  const std::string m = "the quick brown fox jumps over the lazy dog!";
  Sha256 h;
  for (char ch : m) h.update(std::string(1, ch));
  EXPECT_EQ(to_hex(h.finish()), hex_of(m));
}

TEST(Sha256, StreamingSplitAtBlockBoundary) {
  const std::string m(130, 'x');
  Sha256 h;
  h.update(m.substr(0, 64));
  h.update(m.substr(64, 64));
  h.update(m.substr(128));
  EXPECT_EQ(to_hex(h.finish()), hex_of(m));
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(std::string("first"));
  (void)h.finish();
  h.reset();
  h.update(std::string("abc"));
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  (void)h.finish();
  EXPECT_THROW(h.update(std::string("x")), std::logic_error);
  EXPECT_THROW((void)h.finish(), std::logic_error);
}

TEST(Sha256, AvalancheOnSingleBitFlip) {
  const Digest a = sha256(std::string("message A"));
  const Digest b = sha256(std::string("message B"));
  int differing_bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing_bits += __builtin_popcount(static_cast<unsigned>(a[i] ^ b[i]));
  }
  EXPECT_GT(differing_bits, 80);  // ~128 expected
  EXPECT_LT(differing_bits, 176);
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest d = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(to_hex(d),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2Jefe) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Digest d = hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(to_hex(d),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest d = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(to_hex(d),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDifferentTags) {
  const std::string msg = "payload";
  std::vector<std::uint8_t> k1{1, 2, 3};
  std::vector<std::uint8_t> k2{1, 2, 4};
  const auto span_of = [&](const std::string& s) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  EXPECT_NE(to_hex(hmac_sha256(k1, span_of(msg))),
            to_hex(hmac_sha256(k2, span_of(msg))));
}

// ---- Compression backends ------------------------------------------------
// Each backend is called directly through the private header, so neither
// can hide behind the one the process selected. The recorded digests come
// from the portable code as it was before the SHA-extensions backend
// existed.

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() >> 56);
  return out;
}

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

enum class Backend { kPortable, kShani };

class Sha256Backend : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() != Backend::kShani) return;
    if (detail::shani_compress() == nullptr) {
      GTEST_SKIP() << "this build has no SHA-extensions compression";
    }
    if (!detail::cpu_supports_shani()) {
      GTEST_SKIP() << "the CPU lacks the SHA extensions or SSE4.1";
    }
  }

  detail::CompressFn compress() const {
    return GetParam() == Backend::kShani ? detail::shani_compress()
                                         : &detail::compress_portable;
  }

  Digest digest(std::span<const std::uint8_t> m) const {
    Sha256 h(compress());
    h.update(m);
    return h.finish();
  }
};

TEST_P(Sha256Backend, KnownAnswerVectors) {
  EXPECT_EQ(to_hex(digest(bytes_of(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(digest(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      to_hex(digest(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(digest(bytes_of(std::string(64, 'a')))),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
  Sha256 h(compress());
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Backend, EveryLengthTo300MatchesRecordedDigests) {
  // Lengths 0-300 cross every padding case: one tail block or two, and
  // 0-4 whole blocks before it.
  Sha256 all(compress());
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::vector<std::uint8_t> m = random_bytes(len, len);
    const Digest d = digest(m);
    Sha256 portable(&detail::compress_portable);
    portable.update(m);
    ASSERT_EQ(to_hex(d), to_hex(portable.finish())) << "length " << len;
    all.update(std::span<const std::uint8_t>(d.data(), d.size()));
  }
  EXPECT_EQ(to_hex(all.finish()),
            "237c5e596c97b8ef681bb07d96b1317d54250a1265d6a4d4bba1637cb3467f14");
}

TEST_P(Sha256Backend, ThetaWidthMatchesRecordedDigest) {
  // 279,880 B: cluster_tcp's θ, hashed every round by parameter_hash.
  EXPECT_EQ(to_hex(digest(random_bytes(279880, 279880))),
            "e935f661236569feac5b96918347400d1de49df4d24a017e992606285b084d2e");
}

TEST_P(Sha256Backend, EveryUpdateSplitOf200BytesMatchesOneShot) {
  const std::vector<std::uint8_t> m = random_bytes(200, 200);
  const std::span<const std::uint8_t> all(m);
  const std::string expected = to_hex(digest(all));
  for (std::size_t i = 0; i <= m.size(); ++i) {
    for (std::size_t j = i; j <= m.size(); ++j) {
      Sha256 h(compress());
      h.update(all.subspan(0, i));
      h.update(all.subspan(i, j - i));
      h.update(all.subspan(j));
      ASSERT_EQ(to_hex(h.finish()), expected) << "split at " << i << ", " << j;
    }
  }
}

TEST_P(Sha256Backend, HmacTagsMatchRfc4231AndRecordedTags) {
  const auto tag = [&](std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> msg) {
    return to_hex(HmacSha256(key, compress()).tag(msg));
  };
  EXPECT_EQ(tag(std::vector<std::uint8_t>(20, 0x0b), bytes_of("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(tag(bytes_of("Jefe"), bytes_of("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(
      tag(std::vector<std::uint8_t>(131, 0xaa),
          bytes_of("Test Using Larger Than Block-Size Key - Hash Key First")),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  // Keys of 0-140 bytes (above 64 the key is hashed first).
  Sha256 all(compress());
  for (std::size_t k = 0; k <= 140; k += 7) {
    const Digest t = HmacSha256(random_bytes(k, 5000 + k), compress())
                         .tag(random_bytes(3 * k + 1, 9000 + k));
    all.update(std::span<const std::uint8_t>(t.data(), t.size()));
  }
  EXPECT_EQ(to_hex(all.finish()),
            "5fbaefe566c384538bc13e94eddec214ea36c8b2b1d3ebb770c158db749af446");
}

INSTANTIATE_TEST_SUITE_P(Compression, Sha256Backend,
                         ::testing::Values(Backend::kPortable, Backend::kShani),
                         [](const ::testing::TestParamInfo<Backend>& p) {
                           return p.param == Backend::kShani
                                      ? std::string("Shani")
                                      : std::string("Portable");
                         });

TEST(Sha256Selection, FollowsCpuidAndTheScalarOverride) {
  const detail::CompressFn active = detail::active_compress();
  EXPECT_EQ(active, detail::active_compress());  // resolved once, stable
  const char* env = std::getenv("FIFL_KERNEL_ISA");
  const bool forced_scalar = env != nullptr && std::string(env) == "scalar";
  const bool shani_ok =
      detail::shani_compress() != nullptr && detail::cpu_supports_shani();
  if (shani_ok && !forced_scalar) {
    EXPECT_EQ(active, detail::shani_compress());
    EXPECT_STREQ(detail::compress_name(active), "shani");
  } else {
    EXPECT_EQ(active, &detail::compress_portable);
    EXPECT_STREQ(detail::compress_name(active), "portable");
  }
}

TEST(ToHex, Formats32BytesAs64Chars) {
  Digest d{};
  d[0] = 0xde;
  d[31] = 0x01;
  const std::string hex = to_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 2), "de");
  EXPECT_EQ(hex.substr(62, 2), "01");
}

}  // namespace
}  // namespace fifl::chain
