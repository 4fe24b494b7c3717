#include "chain/signature.hpp"

#include <stdexcept>

namespace fifl::chain {

KeyRegistry::KeyRegistry(std::uint64_t seed) : seed_(seed) {}

void KeyRegistry::register_node(NodeId node) {
  // Secret key = SHA256(seed || node). Deterministic for reproducibility,
  // but unknowable to other simulated nodes (they never see `seed_`).
  std::string material = "fifl-key:";
  material += std::to_string(seed_);
  material += ':';
  material += std::to_string(node);
  const Digest key = sha256(material);
  keys_.insert_or_assign(
      node, HmacSha256(std::span<const std::uint8_t>(key.data(), key.size())));
}

bool KeyRegistry::is_registered(NodeId node) const {
  return keys_.contains(node);
}

namespace {
std::span<const std::uint8_t> bytes_of(const std::string& message) {
  return {reinterpret_cast<const std::uint8_t*>(message.data()),
          message.size()};
}
}  // namespace

Signature KeyRegistry::sign(NodeId node, const std::string& message) const {
  const auto it = keys_.find(node);
  if (it == keys_.end()) {
    throw std::invalid_argument("KeyRegistry::sign: unregistered node");
  }
  Signature sig;
  sig.signer = node;
  sig.tag = it->second.tag(bytes_of(message));
  return sig;
}

bool KeyRegistry::verify(const Signature& sig, const std::string& message) const {
  const auto it = keys_.find(sig.signer);
  if (it == keys_.end()) return false;
  return it->second.tag(bytes_of(message)) == sig.tag;
}

}  // namespace fifl::chain
