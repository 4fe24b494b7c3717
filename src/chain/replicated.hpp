// Replicated audit ledger (Sec. 4/4.5 trust story, made multi-server).
//
// Every server runs an identical deterministic FiflEngine replica, so each
// round every replica seals the *same* block into its local Ledger. This
// layer turns that replication into an explicit commit protocol:
//
//   executor   the round's lead server signs the sealed block's header and
//              proposes it to the followers (net::BlockProposalMsg)
//   follower   recomputes the header from its own replica's block — any
//              field mismatch is Byzantine divergence (a "ledger fork"),
//              a match yields a signed BlockVote back to the executor
//   commit     the executor's signature plus follower votes form a quorum
//              certificate (majority of the M servers); only committed
//              blocks are served to auditors
//
// Workers audit without trusting any single server: an AuditProofBundle
// carries one record, its Merkle inclusion proof, and the *signed* header
// chain up to the committed tip — or only its suffix past the headers the
// worker already verified. An AuditVerifier recomputes each new block hash
// from header fields alone, walks the hash links back to its anchor (the
// last header it verified; genesis for a fresh verifier), and checks the
// executor signature + vote quorum on each new header against an
// independently derived KeyRegistry replica — so a server that forges a
// record must also forge a majority of server keys to produce a verifying
// bundle, and a worker's audit costs O(new headers), not O(chain).
//
// Identity layout matches fifl::net: worker i signs as NodeId i, server j
// as NodeId workers + j (the lead, j = 0, coincides with the engine's task
// publisher id). Keys are derived deterministically from (seed, node), so
// make_registry() on any node reproduces the federation's PKI.
//
// Thread model: one ReplicatedLedger belongs to one server's event-loop
// thread; no internal locking.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "chain/ledger.hpp"

namespace fifl::chain {

/// The consensus view of one sealed block: everything needed to recompute
/// and chain-link its hash, nothing that depends on holding the records.
struct BlockHeader {
  std::uint64_t index = 0;
  Digest previous_hash{};
  Digest merkle_root{};
  Digest block_hash{};

  /// Canonical byte string the executor and voters sign.
  std::string canonical_payload() const;
  /// Recomputes the hash from (index, previous_hash, merkle_root) through
  /// hash_block, as Block::compute_hash does, so a header's block_hash is
  /// checkable without the records.
  Digest compute_hash() const;

  bool operator==(const BlockHeader&) const = default;
};

/// Header view of a sealed ledger block.
BlockHeader header_of(const Block& block);

/// A header plus its quorum certificate: the executor's signature and the
/// follower votes, all over canonical_payload().
struct SealedBlockHeader {
  BlockHeader header;
  Signature executor_sig;
  std::vector<Signature> votes;
};

/// Everything a worker needs to verify one of its own records offline:
/// the record, its Merkle path into block `block_index`, and the signed
/// header chain up to the committed tip.
struct AuditProofBundle {
  bool found = false;
  AuditRecord record;
  std::uint64_t block_index = 0;
  std::uint64_t record_index = 0;
  MerkleProof proof;
  /// Absolute chain index of headers[0]. Nonzero means the server elided
  /// the prefix the auditor said it already verified (proof caching): the
  /// first shipped header must then hash-link to the auditor's
  /// AuditVerifier anchor, and a record in an elided block proves into a
  /// Merkle root the verifier kept.
  std::uint64_t headers_from = 0;
  std::vector<SealedBlockHeader> headers;
};

class ReplicatedLedger {
 public:
  /// Wraps (not owns) the server's local ledger. `self` is this node's
  /// signing identity (workers + server_index in the net layout).
  ReplicatedLedger(const Ledger* ledger, std::uint64_t key_seed,
                   std::uint32_t workers, std::uint32_t servers, NodeId self);

  /// The federation PKI replica: node ids 0..workers+servers-1 plus the
  /// publisher (id == workers), all keyed from `seed`. Workers build one
  /// of these locally to verify proofs against no server's say-so.
  static KeyRegistry make_registry(std::uint64_t seed, std::uint32_t workers,
                                   std::uint32_t servers);

  /// Votes needed for a commit, the executor's own included: a strict
  /// majority of the M servers.
  std::size_t quorum() const noexcept { return servers_ / 2 + 1; }

  NodeId self() const noexcept { return self_; }
  std::uint32_t workers() const noexcept { return workers_; }
  std::uint32_t servers() const noexcept { return servers_; }
  const KeyRegistry& registry() const noexcept { return registry_; }

  /// Executor: signs sealed block `block_index` of the local ledger and
  /// stages it for vote collection. With quorum() == 1 (M = 1) the block
  /// commits immediately. Throws std::out_of_range on an unsealed index.
  const SealedBlockHeader& propose(std::uint64_t block_index);

  /// Follower: checks the proposed header (and the proposed records) field
  /// by field against this replica's own sealed block. A match records the
  /// header as endorsed and returns this node's vote; any mismatch —
  /// including a bad executor signature — returns nullopt: the chain has
  /// forked and the caller must abort. Throws std::out_of_range when the
  /// local replica has not sealed `header.index` yet.
  std::optional<Signature> verify_and_vote(
      const BlockHeader& header, const Signature& executor_sig,
      const std::vector<AuditRecord>& records);

  /// Executor: folds one follower vote into the pending certificate.
  /// Returns false (and changes nothing) for votes that do not verify,
  /// duplicate a recorded signer, name a non-server signer, or reference
  /// an unproposed block; throws std::runtime_error when the vote's
  /// block_hash contradicts the proposed header (a forked follower).
  bool record_vote(std::uint64_t block_index, const Digest& block_hash,
                   const Signature& vote);

  /// True once `block_index` holds a full quorum certificate.
  bool committed(std::uint64_t block_index) const;
  /// Committed blocks form a prefix (votes for block k only arrive after
  /// every replica sealed k, in order); this is the prefix length.
  std::size_t committed_count() const noexcept { return committed_prefix_; }
  /// The quorum certificate for a proposed block (committed or pending);
  /// nullptr when never proposed. Followers hold their endorsed view here
  /// (their own vote only).
  const SealedBlockHeader* sealed(std::uint64_t block_index) const;

  /// Builds the audit bundle for the newest committed record matching
  /// (kind, round, subject). found == false when no such record exists in
  /// the committed prefix. The header chain always spans the whole
  /// committed prefix, pinning the tip.
  AuditProofBundle prove(RecordKind kind, std::uint64_t round,
                         NodeId subject) const;

  /// Proof-caching variant: ships only headers [from_header, tip) —
  /// clamped to the committed prefix — and records the elision in
  /// bundle.headers_from, for an auditor whose AuditVerifier already
  /// verified headers [0, from_header). With from_header == 0 it is
  /// exactly prove().
  AuditProofBundle prove(RecordKind kind, std::uint64_t round, NodeId subject,
                         std::uint64_t from_header) const;

  /// Rejoin path: installs a committed block's quorum certificate that
  /// arrived over ChainSync instead of through propose/vote. The local
  /// ledger must already hold the replayed block at `sealed.header.index`;
  /// the certificate is verified in full (recomputed hash, executor
  /// signature, distinct-signer vote quorum, match against the local
  /// block) and any failure throws std::runtime_error — the sync peer
  /// served a fork or a forged certificate.
  void adopt_committed(const SealedBlockHeader& sealed);

 private:
  bool is_server_id(NodeId node) const noexcept {
    return node >= workers_ && node < workers_ + servers_;
  }
  /// The entry for `block_index`, growing the tables to hold it.
  SealedBlockHeader& slot(std::uint64_t block_index);
  /// Marks a held block committed (once: the metric counts blocks) and
  /// extends the committed prefix past it.
  void mark_committed(std::uint64_t block_index);

  const Ledger* ledger_;
  KeyRegistry registry_;
  std::uint32_t workers_;
  std::uint32_t servers_;
  NodeId self_;
  /// Proposed/endorsed headers by block index; contiguous from 0 in
  /// practice (one proposal per round, in round order).
  std::vector<SealedBlockHeader> sealed_;
  std::vector<bool> committed_;
  /// Length of the committed prefix of committed_.
  std::size_t committed_prefix_ = 0;
};

/// A worker's offline audit-proof checker. It owns an independent PKI
/// replica (ReplicatedLedger::make_registry from the shared key seed, never
/// received over the wire) and an anchor: headers [0, verified_count())
/// are verified, the last of them is the anchor, and the hash and Merkle
/// root of the newest kKeptBlocks verified blocks are kept. A fresh
/// verifier is anchored at genesis, so its first bundle must carry the
/// chain from block 0. Trusts nothing in a bundle itself.
///
/// Not thread-safe: one verifier belongs to one worker's event loop.
class AuditVerifier {
 public:
  /// Verified blocks whose hash and Merkle root stay kept behind the
  /// anchor. A late answer (a retried round-r proof landing after round
  /// r+1's) starts, or proves a record, behind the anchor and checks out
  /// against these; one more than kKeptBlocks behind cannot be linked and
  /// fails. 64 blocks cover every retry window the failover tests drive
  /// (one round) with room to spare, at 64 bytes a block.
  static constexpr std::size_t kKeptBlocks = 64;

  AuditVerifier(std::uint64_t key_seed, std::uint32_t workers,
                std::uint32_t servers);

  /// Checks one bundle: the record's signature and its Merkle inclusion,
  /// every shipped header's index, and hash links from the block before
  /// the first shipped header (the anchor, a kept block, or genesis)
  /// through the last one. A shipped header that is kept must equal the
  /// verified one — a different hash there is a fork —, and every other
  /// header must recompute its hash and carry a valid executor signature
  /// plus a distinct-signer vote quorum. Returns true and moves the anchor
  /// to the bundle's tip when that lies past it; a rejected bundle, or an
  /// old one that ends at or below the anchor, leaves the anchor where it
  /// is. Rejects a bundle whose headers start past the anchor (a gap), or
  /// whose first header's parent or record block is no longer kept.
  bool verify(const AuditProofBundle& bundle);

  /// Number of headers verified so far — the
  /// AuditQueryMsg::last_verified_index an auditor sends, so that a server
  /// ships only the headers past the anchor.
  std::uint64_t verified_count() const noexcept { return verified_; }

 private:
  struct KeptBlock {
    Digest block_hash{};
    Digest merkle_root{};
  };
  /// The kept block at chain index `index`, or nullptr when it is past
  /// the anchor or no longer kept.
  const KeptBlock* kept(std::uint64_t index) const;

  KeyRegistry registry_;
  std::uint32_t workers_;
  std::uint32_t servers_;
  std::uint64_t verified_ = 0;
  /// Blocks [verified_ - kept_.size(), verified_); back() is the anchor.
  std::deque<KeptBlock> kept_;
};

}  // namespace fifl::chain
