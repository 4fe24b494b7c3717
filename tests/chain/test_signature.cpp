#include "chain/signature.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fifl::chain {
namespace {

TEST(KeyRegistry, SignVerifyRoundTrip) {
  KeyRegistry reg(42);
  reg.register_node(7);
  const Signature sig = reg.sign(7, "hello");
  EXPECT_TRUE(reg.verify(sig, "hello"));
}

TEST(KeyRegistry, VerifyFailsOnTamperedMessage) {
  KeyRegistry reg(42);
  reg.register_node(7);
  const Signature sig = reg.sign(7, "hello");
  EXPECT_FALSE(reg.verify(sig, "hellO"));
}

TEST(KeyRegistry, VerifyFailsOnForgedSigner) {
  KeyRegistry reg(42);
  reg.register_node(1);
  reg.register_node(2);
  Signature sig = reg.sign(1, "msg");
  sig.signer = 2;  // claim another identity
  EXPECT_FALSE(reg.verify(sig, "msg"));
}

TEST(KeyRegistry, UnregisteredSignThrows) {
  KeyRegistry reg(42);
  EXPECT_THROW((void)reg.sign(5, "m"), std::invalid_argument);
}

TEST(KeyRegistry, UnregisteredVerifyIsFalse) {
  KeyRegistry reg(42);
  reg.register_node(1);
  Signature sig = reg.sign(1, "m");
  KeyRegistry other(42);
  EXPECT_FALSE(other.verify(sig, "m"));  // node not registered there
}

TEST(KeyRegistry, DifferentSeedsProduceDifferentTags) {
  KeyRegistry a(1), b(2);
  a.register_node(3);
  b.register_node(3);
  EXPECT_NE(a.sign(3, "m").tag, b.sign(3, "m").tag);
}

TEST(KeyRegistry, DifferentNodesProduceDifferentTags) {
  KeyRegistry reg(9);
  reg.register_node(1);
  reg.register_node(2);
  EXPECT_NE(reg.sign(1, "m").tag, reg.sign(2, "m").tag);
}

TEST(KeyRegistry, SignaturesAreDeterministic) {
  KeyRegistry reg(5);
  reg.register_node(1);
  EXPECT_EQ(reg.sign(1, "m").tag, reg.sign(1, "m").tag);
}

TEST(KeyRegistry, TagIsHmacUnderTheDerivedNodeKey) {
  // sign() and verify() reuse each node's cached HMAC pad states; the tag
  // must stay HMAC-SHA256(SHA256("fifl-key:<seed>:<node>"), message).
  const std::vector<std::string> messages = {
      "", "m", "detection|3|17|0|0x1p+0", std::string(55, 'a'),
      std::string(64, 'b'), std::string(200, 'c')};
  for (const std::uint64_t seed : {0ull, 42ull, 0x51f7ull}) {
    KeyRegistry reg(seed);
    for (const NodeId node : {0u, 1u, 7u, 100u}) {
      reg.register_node(node);
      const Digest key = sha256("fifl-key:" + std::to_string(seed) + ":" +
                                std::to_string(node));
      for (const std::string& message : messages) {
        const Digest expected = hmac_sha256(
            std::span<const std::uint8_t>(key.data(), key.size()),
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(message.data()),
                message.size()));
        const Signature sig = reg.sign(node, message);
        EXPECT_EQ(sig.tag, expected)
            << "seed " << seed << " node " << node << " message size "
            << message.size();
        EXPECT_TRUE(reg.verify(sig, message));
      }
    }
  }
}

TEST(KeyRegistry, IsRegisteredReflectsState) {
  KeyRegistry reg(5);
  EXPECT_FALSE(reg.is_registered(1));
  reg.register_node(1);
  EXPECT_TRUE(reg.is_registered(1));
}

}  // namespace
}  // namespace fifl::chain
