// Hash-linked audit ledger ("blockchain" in the paper, Sec. 4/4.5).
//
// Every round the FIFL engine seals one block containing all assessment
// records (detection result, reputation, contribution, reward per worker),
// each signed by the server that produced it. Tampering with any record
// changes its digest, hence the block's Merkle root, hence every later
// block hash — which is exactly the audit property the paper relies on to
// trace and evict manipulating servers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chain/merkle.hpp"
#include "chain/signature.hpp"

namespace fifl::chain {

enum class RecordKind : std::uint8_t {
  kDetection = 0,
  kReputation = 1,
  kContribution = 2,
  kReward = 3,
  kServerSelection = 4,
};

const char* record_kind_name(RecordKind kind);

struct AuditRecord {
  RecordKind kind = RecordKind::kDetection;
  std::uint64_t round = 0;
  NodeId subject = 0;   // the worker being assessed
  NodeId executor = 0;  // the server that produced the value
  double value = 0.0;
  Signature signature;  // executor's signature over canonical_payload()

  /// Canonical byte string that is hashed and signed (excludes signature).
  std::string canonical_payload() const;
  Digest digest() const;
};

/// Appends the decimal digits of `v` (std::to_chars, no locale).
void append_decimal(std::string& out, std::uint64_t v);

/// A block's hash: SHA-256 of "<index>|", then the previous block's hash
/// and the Merkle root, raw. Block and BlockHeader both hash through this.
Digest hash_block(std::uint64_t index, const Digest& previous_hash,
                  const Digest& merkle_root);

struct Block {
  std::uint64_t index = 0;
  Digest previous_hash{};
  Digest merkle_root{};
  std::vector<AuditRecord> records;
  Digest block_hash{};

  Digest compute_hash() const;
};

class Ledger {
 public:
  explicit Ledger(const KeyRegistry* registry);

  /// Creates a record, signs it as `executor`, and stages it for the next
  /// block. Throws if the executor is not registered.
  const AuditRecord& append(RecordKind kind, std::uint64_t round,
                            NodeId subject, NodeId executor, double value);

  /// Seals staged records into a new block; returns its index. The record
  /// digests (the Merkle leaves) are computed as tasks on the global pool.
  std::uint64_t seal_block();

  std::size_t block_count() const noexcept { return blocks_.size(); }
  std::size_t pending_records() const noexcept { return pending_.size(); }
  const Block& block(std::size_t i) const { return blocks_.at(i); }

  /// Full-chain integrity check: record signatures, Merkle roots, and the
  /// hash links. Returns false at the first inconsistency.
  bool verify_chain() const;

  /// All sealed records matching the filters (any field may be nullopt).
  std::vector<AuditRecord> query(std::optional<RecordKind> kind,
                                 std::optional<std::uint64_t> round,
                                 std::optional<NodeId> subject) const;

  /// Latest sealed record of `kind` for `subject`, if any.
  std::optional<AuditRecord> latest(RecordKind kind, NodeId subject) const;

  /// Membership proof that sealed record `record_index` of block
  /// `block_index` is committed by that block's Merkle root. The newest
  /// block's proofs come from the tree kept at seal time; older blocks
  /// rebuild theirs from the record digests.
  MerkleProof prove_record(std::size_t block_index,
                           std::size_t record_index) const;

  /// The audit described in Sec. 4.5: given an independently recomputed
  /// value for (kind, round, subject), returns the executor(s) whose
  /// on-chain records deviate by more than `tolerance` — the servers to
  /// evict. An empty result means the chain agrees with the recomputation.
  std::vector<NodeId> audit_value(RecordKind kind, std::uint64_t round,
                                  NodeId subject, double recomputed,
                                  double tolerance = 1e-9) const;

 private:
  const KeyRegistry* registry_;
  std::vector<Block> blocks_;
  std::vector<AuditRecord> pending_;
  std::optional<MerkleTree> newest_tree_;  // blocks_.back()'s tree
};

}  // namespace fifl::chain
