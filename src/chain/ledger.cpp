#include "chain/ledger.hpp"

#include <bit>
#include <charconv>
#include <cmath>
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

void append_decimal(std::string& out, std::uint64_t v) {
  char digits[20];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
}

namespace {
/// Appends `v` as glibc's printf("%a") spells it: "0x1.<hex>p<exp>" for a
/// normal value, "0x0.<hex>p-1022" for a subnormal, "0x0p+0" for zero,
/// trailing zero hex digits dropped, "inf" and "nan", each with a leading
/// '-' when the sign bit is set. Written out here because std::to_chars'
/// hex form of a subnormal differs between libstdc++ versions (GCC 12's
/// writes 0x0.<hex>p-1022 like %a, GCC 15's normalises it), and the
/// payload must not depend on the library a binary loads.
void append_hex_double(std::string& out, double v) {
  static constexpr char kHex[] = "0123456789abcdef";
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  if ((bits >> 63) != 0) out += '-';
  if (biased == 0x7ff) {
    out += fraction == 0 ? "inf" : "nan";
    return;
  }
  const int exponent = biased != 0 ? biased - 1023 : fraction != 0 ? -1022 : 0;
  out += biased != 0 ? "0x1" : "0x0";
  if (fraction != 0) out += '.';
  // The 52 fraction bits as 13 hex digits, highest first, until the rest
  // are zero.
  for (int shift = 48; fraction != 0; shift -= 4) {
    out += kHex[(fraction >> shift) & 0xf];
    fraction &= (std::uint64_t{1} << shift) - 1;
  }
  out += exponent < 0 ? "p-" : "p+";
  append_decimal(out, static_cast<std::uint64_t>(exponent < 0 ? -exponent
                                                              : exponent));
}
}  // namespace

std::string AuditRecord::canonical_payload() const {
  // kind|round|subject|executor|value in one allocation, the value
  // hex-exact as "%a" spells it, so the payload is bit-stable across
  // platforms and re-serialisation.
  std::string out;
  out.reserve(96);
  out += record_kind_name(kind);
  out += '|';
  append_decimal(out, round);
  out += '|';
  append_decimal(out, subject);
  out += '|';
  append_decimal(out, executor);
  out += '|';
  append_hex_double(out, value);
  return out;
}

Digest AuditRecord::digest() const {
  Sha256 h;
  h.update(canonical_payload());
  h.update(std::span<const std::uint8_t>(signature.tag.data(),
                                         signature.tag.size()));
  return h.finish();
}

Digest hash_block(std::uint64_t index, const Digest& previous_hash,
                  const Digest& merkle_root) {
  // "<index>|" (at most 21 bytes), then the two digests' raw bytes.
  char prefix[24];
  char* p = std::to_chars(prefix, prefix + 20, index).ptr;
  *p++ = '|';
  Sha256 h;
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(prefix),
      static_cast<std::size_t>(p - prefix)));
  h.update(std::span<const std::uint8_t>(previous_hash.data(),
                                         previous_hash.size()));
  h.update(std::span<const std::uint8_t>(merkle_root.data(),
                                         merkle_root.size()));
  return h.finish();
}

Digest Block::compute_hash() const {
  return hash_block(index, previous_hash, merkle_root);
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

  // The record digests (the Merkle leaves) on the pool: parallel_for splits
  // them into at most one contiguous chunk per pool thread, and each leaf is
  // written by the task whose chunk holds it.
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
