#include "chain/replicated.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace fifl::chain {

namespace {
// Consensus telemetry next to the sealing counters: how many blocks ever
// reached a quorum certificate, and how many follower endorsements were
// folded in.
struct ReplMetrics {
  obs::Counter& committed =
      obs::MetricsRegistry::global().counter("chain.blocks_committed");
  obs::Counter& votes =
      obs::MetricsRegistry::global().counter("chain.votes_recorded");
  static ReplMetrics& get() {
    static ReplMetrics m;
    return m;
  }
};

/// Why `sealed` is not a self-consistent quorum certificate — its hash
/// does not recompute, the executor signature or a vote does not verify
/// under a server key, a signer repeats, or fewer than a strict majority
/// of the `servers` signed — or nullopt when it is one.
std::optional<std::string> certificate_fault(const SealedBlockHeader& sealed,
                                             const KeyRegistry& registry,
                                             std::uint32_t workers,
                                             std::uint32_t servers) {
  const auto is_server = [&](NodeId node) {
    return node >= workers && node < workers + servers;
  };
  if (sealed.header.compute_hash() != sealed.header.block_hash) {
    return "has a block hash that does not recompute";
  }
  const std::string payload = sealed.header.canonical_payload();
  if (!is_server(sealed.executor_sig.signer) ||
      !registry.verify(sealed.executor_sig, payload)) {
    return "has an invalid executor signature";
  }
  std::vector<NodeId> signers{sealed.executor_sig.signer};
  for (const Signature& vote : sealed.votes) {
    if (!is_server(vote.signer) ||
        std::find(signers.begin(), signers.end(), vote.signer) !=
            signers.end() ||
        !registry.verify(vote, payload)) {
      return "carries an invalid vote";
    }
    signers.push_back(vote.signer);
  }
  const std::size_t quorum = servers / 2 + 1;
  if (signers.size() < quorum) {
    return "is below quorum (" + std::to_string(signers.size()) + " of " +
           std::to_string(quorum) + ")";
  }
  return std::nullopt;
}
}  // namespace

std::string BlockHeader::canonical_payload() const {
  // "blockheader|<index>|<prev>|<root>|<hash>", digests in lowercase hex,
  // in one allocation.
  std::string out;
  out.reserve(232);
  out += "blockheader|";
  append_decimal(out, index);
  for (const Digest* d : {&previous_hash, &merkle_root, &block_hash}) {
    out += '|';
    append_hex(out, *d);
  }
  return out;
}

Digest BlockHeader::compute_hash() const {
  return hash_block(index, previous_hash, merkle_root);
}

BlockHeader header_of(const Block& block) {
  BlockHeader h;
  h.index = block.index;
  h.previous_hash = block.previous_hash;
  h.merkle_root = block.merkle_root;
  h.block_hash = block.block_hash;
  return h;
}

ReplicatedLedger::ReplicatedLedger(const Ledger* ledger,
                                   std::uint64_t key_seed,
                                   std::uint32_t workers,
                                   std::uint32_t servers, NodeId self)
    : ledger_(ledger), registry_(make_registry(key_seed, workers, servers)),
      workers_(workers), servers_(servers), self_(self) {
  if (!ledger_) throw std::invalid_argument("ReplicatedLedger: null ledger");
  if (servers_ == 0) {
    throw std::invalid_argument("ReplicatedLedger: servers must be >= 1");
  }
  if (!is_server_id(self_)) {
    throw std::invalid_argument(
        "ReplicatedLedger: self must be a server id (workers..workers+M-1)");
  }
}

KeyRegistry ReplicatedLedger::make_registry(std::uint64_t seed,
                                            std::uint32_t workers,
                                            std::uint32_t servers) {
  // Workers 0..N-1 (record subjects can sign nothing, but the engine
  // registers them, so mirror it), the publisher N, and the servers
  // N..N+M-1 — the publisher and the lead share id N by construction.
  KeyRegistry registry(seed);
  for (NodeId n = 0; n < workers + servers; ++n) registry.register_node(n);
  registry.register_node(workers);  // publisher; no-op when M >= 1
  return registry;
}

const SealedBlockHeader& ReplicatedLedger::propose(std::uint64_t block_index) {
  const Block& block = ledger_->block(static_cast<std::size_t>(block_index));
  SealedBlockHeader& entry = slot(block_index);
  const BlockHeader header = header_of(block);
  // A takeover executor re-proposing a block this replica already holds
  // committed must not destroy the quorum certificate: until the re-votes
  // arrive the entry would otherwise carry a single signature, and a
  // ChainSync served from that window would (rightly) be rejected as
  // below quorum by the adopter. Carry the old endorsements over — the
  // previous executor's signature becomes an ordinary vote (it signs the
  // same canonical payload) and any prior vote by this node is absorbed
  // into its new executor signature.
  std::vector<Signature> carried;
  if (committed(block_index) && entry.header == header) {
    carried = std::move(entry.votes);
    if (entry.executor_sig.signer != self_) {
      carried.push_back(entry.executor_sig);
    }
  }
  entry.header = header;
  entry.executor_sig = registry_.sign(self_, entry.header.canonical_payload());
  entry.votes.clear();
  for (const Signature& sig : carried) {
    if (sig.signer == self_) continue;
    const bool dup = std::any_of(
        entry.votes.begin(), entry.votes.end(),
        [&](const Signature& v) { return v.signer == sig.signer; });
    if (!dup) entry.votes.push_back(sig);
  }
  if (quorum() <= 1) mark_committed(block_index);
  return entry;
}

std::optional<Signature> ReplicatedLedger::verify_and_vote(
    const BlockHeader& header, const Signature& executor_sig,
    const std::vector<AuditRecord>& records) {
  const Block& local =
      ledger_->block(static_cast<std::size_t>(header.index));
  // Field-by-field recompute check: the proposed header must equal the
  // header this replica sealed on its own, and the proposed records must
  // be digest-identical to the local block's. Any difference means the
  // executor's chain and ours have forked.
  if (header_of(local) != header) return std::nullopt;
  if (records.size() != local.records.size()) return std::nullopt;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].digest() != local.records[i].digest()) return std::nullopt;
  }
  if (!is_server_id(executor_sig.signer) ||
      !registry_.verify(executor_sig, header.canonical_payload())) {
    return std::nullopt;
  }
  const Signature vote = registry_.sign(self_, header.canonical_payload());
  // The follower's endorsed view: the header it checked, the executor's
  // certificate seed, and its own vote.
  SealedBlockHeader& entry = slot(header.index);
  entry.header = header;
  entry.executor_sig = executor_sig;
  entry.votes.assign(1, vote);
  ReplMetrics::get().votes.inc();
  // The executor's signature plus this vote may already be a quorum
  // certificate (M <= 3): mark the block committed locally so followers
  // can serve audit proofs and ChainSync without waiting to observe the
  // other followers' votes.
  if (1 + entry.votes.size() >= quorum()) mark_committed(header.index);
  return vote;
}

bool ReplicatedLedger::record_vote(std::uint64_t block_index,
                                   const Digest& block_hash,
                                   const Signature& vote) {
  if (block_index >= sealed_.size()) return false;
  SealedBlockHeader& entry = sealed_[static_cast<std::size_t>(block_index)];
  if (entry.header.block_hash != block_hash) {
    // A verifying replica can only vote for the hash it recomputed; a
    // contradicting hash means its chain forked from ours.
    throw std::runtime_error(
        "ReplicatedLedger: vote for block " + std::to_string(block_index) +
        " carries a contradicting block hash (ledger fork)");
  }
  if (!is_server_id(vote.signer) || vote.signer == entry.executor_sig.signer) {
    return false;
  }
  if (std::any_of(entry.votes.begin(), entry.votes.end(),
                  [&](const Signature& v) { return v.signer == vote.signer; })) {
    return false;  // duplicate (a redelivered vote), not an error
  }
  if (!registry_.verify(vote, entry.header.canonical_payload())) return false;
  entry.votes.push_back(vote);
  ReplMetrics::get().votes.inc();
  if (1 + entry.votes.size() >= quorum()) mark_committed(block_index);
  return true;
}

bool ReplicatedLedger::committed(std::uint64_t block_index) const {
  return block_index < committed_.size() &&
         committed_[static_cast<std::size_t>(block_index)];
}

SealedBlockHeader& ReplicatedLedger::slot(std::uint64_t block_index) {
  if (sealed_.size() <= block_index) {
    sealed_.resize(static_cast<std::size_t>(block_index) + 1);
    committed_.resize(static_cast<std::size_t>(block_index) + 1, false);
  }
  return sealed_[static_cast<std::size_t>(block_index)];
}

void ReplicatedLedger::mark_committed(std::uint64_t block_index) {
  const auto i = static_cast<std::size_t>(block_index);
  if (committed_[i]) return;
  committed_[i] = true;
  ReplMetrics::get().committed.inc();
  // A block never leaves the committed set, so the prefix only grows.
  while (committed_prefix_ < committed_.size() &&
         committed_[committed_prefix_]) {
    ++committed_prefix_;
  }
}

const SealedBlockHeader* ReplicatedLedger::sealed(
    std::uint64_t block_index) const {
  if (block_index >= sealed_.size()) return nullptr;
  return &sealed_[static_cast<std::size_t>(block_index)];
}

AuditProofBundle ReplicatedLedger::prove(RecordKind kind, std::uint64_t round,
                                         NodeId subject) const {
  return prove(kind, round, subject, 0);
}

AuditProofBundle ReplicatedLedger::prove(RecordKind kind, std::uint64_t round,
                                         NodeId subject,
                                         std::uint64_t from_header) const {
  AuditProofBundle bundle;
  const std::size_t tip = committed_count();
  // Newest matching record within the committed prefix.
  for (std::size_t b = tip; b-- > 0;) {
    const Block& block = ledger_->block(b);
    for (std::size_t i = block.records.size(); i-- > 0;) {
      const AuditRecord& rec = block.records[i];
      if (rec.kind == kind && rec.round == round && rec.subject == subject) {
        bundle.found = true;
        bundle.record = rec;
        bundle.block_index = b;
        bundle.record_index = i;
        bundle.proof = ledger_->prove_record(b, i);
        break;
      }
    }
    if (bundle.found) break;
  }
  if (!bundle.found) return bundle;
  // Ship only the headers the auditor has not verified yet; it splices
  // its cached prefix back in before verification.
  const std::size_t from =
      std::min(static_cast<std::size_t>(from_header), tip);
  bundle.headers_from = from;
  bundle.headers.reserve(tip - from);
  for (std::size_t b = from; b < tip; ++b) {
    bundle.headers.push_back(sealed_[b]);
  }
  return bundle;
}

void ReplicatedLedger::adopt_committed(const SealedBlockHeader& sealed) {
  const std::uint64_t index = sealed.header.index;
  // The certificate must be self-consistent and carry a genuine quorum.
  if (const auto fault =
          certificate_fault(sealed, registry_, workers_, servers_)) {
    throw std::runtime_error("ReplicatedLedger: adopted block " +
                             std::to_string(index) + " " + *fault);
  }
  // The replayed local block must be the very block the quorum certified;
  // a mismatch means the sync peer served a fork.
  const Block& local = ledger_->block(static_cast<std::size_t>(index));
  if (header_of(local) != sealed.header) {
    throw std::runtime_error(
        "ReplicatedLedger: adopted block " + std::to_string(index) +
        " contradicts the replayed local ledger (fork)");
  }
  slot(index) = sealed;
  mark_committed(index);
}

AuditVerifier::AuditVerifier(std::uint64_t key_seed, std::uint32_t workers,
                             std::uint32_t servers)
    : registry_(ReplicatedLedger::make_registry(key_seed, workers, servers)),
      workers_(workers), servers_(servers) {
  if (servers_ == 0) {
    throw std::invalid_argument("AuditVerifier: servers must be >= 1");
  }
}

const AuditVerifier::KeptBlock* AuditVerifier::kept(
    std::uint64_t index) const {
  const std::uint64_t oldest = verified_ - kept_.size();
  if (index < oldest || index >= verified_) return nullptr;
  return &kept_[static_cast<std::size_t>(index - oldest)];
}

bool AuditVerifier::verify(const AuditProofBundle& bundle) {
  if (!bundle.found) return false;
  const std::uint64_t from = bundle.headers_from;
  const std::vector<SealedBlockHeader>& headers = bundle.headers;
  const std::uint64_t tip = from + headers.size();

  // 1. The shipped headers hash-link to the verified chain: the first one
  //    to the kept block before it (genesis' zero hash for block 0), which
  //    a suffix starting past the anchor (a gap) or too far behind it does
  //    not have. A kept header must be the verified one field for field
  //    (the link pins its previous hash); every other header carries a
  //    recomputing hash and a valid quorum certificate.
  Digest prev{};
  if (from > 0) {
    const KeptBlock* parent = kept(from - 1);
    if (parent == nullptr) return false;
    prev = parent->block_hash;
  }
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const BlockHeader& h = headers[i].header;
    if (h.index != from + i || h.previous_hash != prev) return false;
    if (const KeptBlock* known = kept(h.index)) {
      if (h.block_hash != known->block_hash ||
          h.merkle_root != known->merkle_root) {
        return false;
      }
    } else if (certificate_fault(headers[i], registry_, workers_,
                                 servers_)) {
      return false;
    }
    prev = h.block_hash;
  }

  // 2. The record is genuine and committed under its block's Merkle root:
  //    a shipped header's, or a kept one for a block the bundle elided.
  if (!registry_.verify(bundle.record.signature,
                        bundle.record.canonical_payload())) {
    return false;
  }
  const std::uint64_t b = bundle.block_index;
  const Digest* root = nullptr;
  if (b >= from && b < tip) {
    root = &headers[static_cast<std::size_t>(b - from)].header.merkle_root;
  } else if (const KeptBlock* known = kept(b)) {
    root = &known->merkle_root;
  }
  if (root == nullptr ||
      !MerkleTree::verify(bundle.record.digest(), bundle.proof, *root)) {
    return false;
  }

  // 3. Move the anchor to the tip, forgetting blocks no late answer can
  //    still need.
  for (std::uint64_t i = verified_; i < tip; ++i) {
    const BlockHeader& h = headers[static_cast<std::size_t>(i - from)].header;
    kept_.push_back({h.block_hash, h.merkle_root});
    if (kept_.size() > kKeptBlocks) kept_.pop_front();
  }
  verified_ = std::max(verified_, tip);
  return true;
}

}  // namespace fifl::chain
