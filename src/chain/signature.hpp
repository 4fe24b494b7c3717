// Keyed signatures for audit records.
//
// The paper stores "the signatures of servers executing FIFL" so a server
// that manipulates results can be traced and removed (Sec. 4.5). In this
// in-process simulation the registry plays the role of a PKI: each node
// holds a secret key; sign() = HMAC-SHA256(secret, message); verify()
// recomputes through the registry. That gives exactly the accountability
// property the mechanism needs (only the key holder can produce a valid
// tag; anyone with registry access can check it).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "chain/sha256.hpp"

namespace fifl::chain {

using NodeId = std::uint32_t;

struct Signature {
  NodeId signer = 0;
  Digest tag{};

  bool operator==(const Signature&) const = default;
};

class KeyRegistry {
 public:
  /// Creates a registry with deterministic per-node keys derived from seed.
  explicit KeyRegistry(std::uint64_t seed = 0);

  /// Registers (or re-keys) a node; returns its secret-derived public id.
  void register_node(NodeId node);
  bool is_registered(NodeId node) const;

  /// Signs `message` with the node's secret key.
  Signature sign(NodeId node, const std::string& message) const;
  /// True iff the signature verifies for `message` under its signer's key.
  bool verify(const Signature& sig, const std::string& message) const;

 private:
  std::uint64_t seed_;
  /// Each node's HMAC key, derived once by register_node().
  std::map<NodeId, HmacSha256> keys_;
};

}  // namespace fifl::chain
