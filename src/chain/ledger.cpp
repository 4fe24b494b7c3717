#include "chain/ledger.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/scoped_timer.hpp"
#include "util/parallel_for.hpp"

namespace fifl::chain {

namespace {
// Chain-layer telemetry: append/seal volume plus seal latency, so the
// audit layer's cost shows up in every metrics snapshot next to training.
struct ChainMetrics {
  obs::Counter& records = obs::MetricsRegistry::global().counter("chain.records_appended");
  obs::Counter& blocks = obs::MetricsRegistry::global().counter("chain.blocks_sealed");
  obs::Histogram& seal_ms = obs::MetricsRegistry::global().histogram("chain.seal_ms");
  static ChainMetrics& get() {
    static ChainMetrics m;
    return m;
  }
};
}  // namespace

const char* record_kind_name(RecordKind kind) {
  switch (kind) {
    case RecordKind::kDetection: return "detection";
    case RecordKind::kReputation: return "reputation";
    case RecordKind::kContribution: return "contribution";
    case RecordKind::kReward: return "reward";
    case RecordKind::kServerSelection: return "server_selection";
  }
  return "?";
}

std::string AuditRecord::canonical_payload() const {
  std::ostringstream os;
  // Hex-exact double encoding so the payload is bit-stable across
  // platforms and re-serialisation.
  char value_hex[32];
  std::snprintf(value_hex, sizeof value_hex, "%a", value);
  os << record_kind_name(kind) << '|' << round << '|' << subject << '|'
     << executor << '|' << value_hex;
  return os.str();
}

Digest AuditRecord::digest() const {
  Sha256 h;
  h.update(canonical_payload());
  h.update(std::span<const std::uint8_t>(signature.tag.data(),
                                         signature.tag.size()));
  return h.finish();
}

Digest Block::compute_hash() const {
  Sha256 h;
  std::ostringstream os;
  os << index << '|';
  h.update(os.str());
  h.update(std::span<const std::uint8_t>(previous_hash.data(),
                                         previous_hash.size()));
  h.update(std::span<const std::uint8_t>(merkle_root.data(),
                                         merkle_root.size()));
  return h.finish();
}

Ledger::Ledger(const KeyRegistry* registry) : registry_(registry) {
  if (!registry_) throw std::invalid_argument("Ledger: null registry");
}

const AuditRecord& Ledger::append(RecordKind kind, std::uint64_t round,
                                  NodeId subject, NodeId executor,
                                  double value) {
  AuditRecord rec;
  rec.kind = kind;
  rec.round = round;
  rec.subject = subject;
  rec.executor = executor;
  rec.value = value;
  rec.signature = registry_->sign(executor, rec.canonical_payload());
  pending_.push_back(rec);
  ChainMetrics::get().records.inc();
  return pending_.back();
}

std::uint64_t Ledger::seal_block() {
  obs::ScopedTimer timer(ChainMetrics::get().seal_ms);
  ChainMetrics::get().blocks.inc();
  Block block;
  block.index = blocks_.size();
  if (!blocks_.empty()) {
    block.previous_hash = blocks_.back().block_hash;
  } else {
    block.previous_hash.fill(0);
  }
  block.records = std::move(pending_);
  pending_.clear();

  // One pool task per record digest (a Merkle leaf), each leaf written by
  // its own task only.
  std::vector<Digest> leaves(block.records.size());
  util::parallel_for(
      0, leaves.size(),
      [&](std::size_t k) { leaves[k] = block.records[k].digest(); },
      /*grain=*/1);
  MerkleTree tree(std::move(leaves));
  block.merkle_root = tree.root();
  block.block_hash = block.compute_hash();
  blocks_.push_back(std::move(block));
  newest_tree_ = std::move(tree);
  return blocks_.back().index;
}

bool Ledger::verify_chain() const {
  Digest prev{};
  prev.fill(0);
  for (const auto& block : blocks_) {
    if (block.previous_hash != prev) return false;
    std::vector<Digest> leaves;
    leaves.reserve(block.records.size());
    for (const auto& rec : block.records) {
      if (!registry_->verify(rec.signature, rec.canonical_payload())) {
        return false;
      }
      leaves.push_back(rec.digest());
    }
    if (MerkleTree(std::move(leaves)).root() != block.merkle_root) return false;
    if (block.compute_hash() != block.block_hash) return false;
    prev = block.block_hash;
  }
  return true;
}

std::vector<AuditRecord> Ledger::query(std::optional<RecordKind> kind,
                                       std::optional<std::uint64_t> round,
                                       std::optional<NodeId> subject) const {
  std::vector<AuditRecord> out;
  for (const auto& block : blocks_) {
    for (const auto& rec : block.records) {
      if (kind && rec.kind != *kind) continue;
      if (round && rec.round != *round) continue;
      if (subject && rec.subject != *subject) continue;
      out.push_back(rec);
    }
  }
  return out;
}

std::optional<AuditRecord> Ledger::latest(RecordKind kind,
                                          NodeId subject) const {
  std::optional<AuditRecord> out;
  for (const auto& block : blocks_) {
    for (const auto& rec : block.records) {
      if (rec.kind == kind && rec.subject == subject) out = rec;
    }
  }
  return out;
}

MerkleProof Ledger::prove_record(std::size_t block_index,
                                 std::size_t record_index) const {
  const Block& block = blocks_.at(block_index);
  if (block_index + 1 == blocks_.size()) {
    return newest_tree_->prove(record_index);
  }
  std::vector<Digest> leaves;
  leaves.reserve(block.records.size());
  for (const auto& rec : block.records) leaves.push_back(rec.digest());
  return MerkleTree(std::move(leaves)).prove(record_index);
}

std::vector<NodeId> Ledger::audit_value(RecordKind kind, std::uint64_t round,
                                        NodeId subject, double recomputed,
                                        double tolerance) const {
  std::vector<NodeId> deviating;
  for (const auto& rec : query(kind, round, subject)) {
    if (std::fabs(rec.value - recomputed) > tolerance) {
      deviating.push_back(rec.executor);
    }
  }
  return deviating;
}

}  // namespace fifl::chain
