// Unit tests for the replicated-ledger commit protocol and the worker-side
// audit-proof verifier, exercised without any network: three ledger
// replicas appended and sealed identically (the deterministic-engine
// contract), one ReplicatedLedger per server identity on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chain/ledger.hpp"
#include "chain/replicated.hpp"

namespace fifl::chain {
namespace {

constexpr std::uint32_t kWorkers = 4;
constexpr std::uint32_t kServers = 3;
constexpr std::uint64_t kSeed = 0x51f7u;
constexpr NodeId kPublisher = kWorkers;  // engine's executor id == lead

/// One server replica: its own PKI derivation, its own ledger, fed the
/// same deterministic record stream as every other replica.
struct Replica {
  KeyRegistry registry;
  Ledger ledger;
  ReplicatedLedger repl;

  explicit Replica(std::uint32_t server_index)
      : registry(ReplicatedLedger::make_registry(kSeed, kWorkers, kServers)),
        ledger(&registry),
        repl(&ledger, kSeed, kWorkers, kServers, kWorkers + server_index) {}
};

void append_round(Ledger& ledger, std::uint64_t round) {
  for (NodeId w = 0; w < kWorkers; ++w) {
    ledger.append(RecordKind::kReputation, round, w, kPublisher,
                  0.5 + 0.01 * static_cast<double>(round + w));
    ledger.append(RecordKind::kReward, round, w, kPublisher,
                  0.1 * static_cast<double>(w));
  }
  ledger.seal_block();
}

/// Runs the full propose -> vote -> commit cycle for `round` across the
/// replicas, asserting it commits on the lead.
void commit_round(Replica& lead, Replica& f1, Replica& f2,
                  std::uint64_t round) {
  append_round(lead.ledger, round);
  append_round(f1.ledger, round);
  append_round(f2.ledger, round);
  const SealedBlockHeader& sealed = lead.repl.propose(round);
  const auto& records = lead.ledger.block(round).records;
  for (Replica* follower : {&f1, &f2}) {
    const auto vote = follower->repl.verify_and_vote(
        sealed.header, sealed.executor_sig, records);
    ASSERT_TRUE(vote.has_value());
    lead.repl.record_vote(round, sealed.header.block_hash, *vote);
  }
  ASSERT_TRUE(lead.repl.committed(round));
}

/// A worker's verifier: its PKI is derived from the public seed alone,
/// nothing shared with the provers.
AuditVerifier fresh_verifier() {
  return AuditVerifier(kSeed, kWorkers, kServers);
}

/// A verifier that has verified headers [0, anchor) of `lead`'s committed
/// chain, as a worker does after auditing round anchor - 1 while that
/// block was the tip.
AuditVerifier anchored_at(const Replica& lead, std::uint64_t anchor) {
  AuditVerifier verifier = fresh_verifier();
  if (anchor == 0) return verifier;
  AuditProofBundle bundle =
      lead.repl.prove(RecordKind::kReputation, anchor - 1, 0);
  bundle.headers.resize(static_cast<std::size_t>(anchor));
  EXPECT_TRUE(verifier.verify(bundle)) << "anchor " << anchor;
  EXPECT_EQ(verifier.verified_count(), anchor);
  return verifier;
}

/// Three replicas of one chain, committed round by round.
struct Federation {
  Replica lead{0}, f1{1}, f2{2};

  void commit(std::uint64_t round) { commit_round(lead, f1, f2, round); }
  void commit_rounds(std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t r = from; r < to; ++r) commit(r);
  }
};

/// Commits a round whose records differ from append_round's: every server
/// signs it, so it forks a chain with genuine quorum certificates — the
/// chain equivocating servers could serve.
void commit_forked_round(Federation& fed, std::uint64_t round) {
  for (Replica* replica : {&fed.lead, &fed.f1, &fed.f2}) {
    replica->ledger.append(RecordKind::kReputation, round, 0, kPublisher,
                           0.999);
    for (NodeId w = 1; w < kWorkers; ++w) {
      replica->ledger.append(RecordKind::kReputation, round, w, kPublisher,
                             0.5);
    }
    replica->ledger.seal_block();
  }
  const SealedBlockHeader& sealed = fed.lead.repl.propose(round);
  const auto& records = fed.lead.ledger.block(round).records;
  for (Replica* follower : {&fed.f1, &fed.f2}) {
    const auto vote = follower->repl.verify_and_vote(
        sealed.header, sealed.executor_sig, records);
    ASSERT_TRUE(vote.has_value());
    fed.lead.repl.record_vote(round, sealed.header.block_hash, *vote);
  }
  ASSERT_TRUE(fed.lead.repl.committed(round));
}

TEST(ReplicatedLedger, RegistriesFromSameSeedAreInterchangeable) {
  const KeyRegistry a = ReplicatedLedger::make_registry(kSeed, kWorkers, kServers);
  const KeyRegistry b = ReplicatedLedger::make_registry(kSeed, kWorkers, kServers);
  const Signature sig = a.sign(kWorkers + 1, "payload");
  EXPECT_TRUE(b.verify(sig, "payload"));
  EXPECT_FALSE(b.verify(sig, "payload2"));
  // Every federation identity is registered: workers, publisher, servers.
  for (NodeId n = 0; n < kWorkers + kServers; ++n) {
    EXPECT_TRUE(a.is_registered(n)) << "node " << n;
  }
}

TEST(ReplicatedLedger, QuorumIsStrictServerMajority) {
  Replica lead(0);
  EXPECT_EQ(lead.repl.quorum(), 2u);  // M=3: executor + 1 follower
}

TEST(ReplicatedLedger, ProposeVoteCommitReachesQuorum) {
  Replica lead(0), f1(1), f2(2);
  append_round(lead.ledger, 0);
  append_round(f1.ledger, 0);
  append_round(f2.ledger, 0);

  const SealedBlockHeader& sealed = lead.repl.propose(0);
  EXPECT_EQ(sealed.header, header_of(lead.ledger.block(0)));
  EXPECT_EQ(sealed.header.block_hash, sealed.header.compute_hash());
  EXPECT_FALSE(lead.repl.committed(0));  // 1 of 2 endorsements so far

  const auto vote = f1.repl.verify_and_vote(
      sealed.header, sealed.executor_sig, lead.ledger.block(0).records);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->signer, kWorkers + 1);
  EXPECT_TRUE(lead.repl.record_vote(0, sealed.header.block_hash, *vote));
  EXPECT_TRUE(lead.repl.committed(0));
  EXPECT_EQ(lead.repl.committed_count(), 1u);

  // The second vote still folds into the certificate.
  const auto vote2 = f2.repl.verify_and_vote(
      sealed.header, sealed.executor_sig, lead.ledger.block(0).records);
  ASSERT_TRUE(vote2.has_value());
  EXPECT_TRUE(lead.repl.record_vote(0, sealed.header.block_hash, *vote2));
  EXPECT_EQ(lead.repl.sealed(0)->votes.size(), 2u);
}

TEST(ReplicatedLedger, SingleServerCommitsImmediately) {
  KeyRegistry registry = ReplicatedLedger::make_registry(kSeed, kWorkers, 1);
  Ledger ledger(&registry);
  ReplicatedLedger repl(&ledger, kSeed, kWorkers, 1, kWorkers);
  append_round(ledger, 0);
  repl.propose(0);
  EXPECT_TRUE(repl.committed(0));
}

TEST(ReplicatedLedger, ProposeUnsealedBlockThrows) {
  Replica lead(0);
  EXPECT_THROW(lead.repl.propose(0), std::out_of_range);
}

TEST(ReplicatedLedger, VoteRejectionsChangeNothing) {
  Replica lead(0), f1(1);
  append_round(lead.ledger, 0);
  append_round(f1.ledger, 0);
  const SealedBlockHeader& sealed = lead.repl.propose(0);
  const auto vote = f1.repl.verify_and_vote(
      sealed.header, sealed.executor_sig, lead.ledger.block(0).records);
  ASSERT_TRUE(vote.has_value());

  // Unproposed block index.
  EXPECT_FALSE(lead.repl.record_vote(7, sealed.header.block_hash, *vote));
  // Non-server signer.
  Signature worker_sig = lead.registry.sign(0, sealed.header.canonical_payload());
  EXPECT_FALSE(
      lead.repl.record_vote(0, sealed.header.block_hash, worker_sig));
  // Executor voting for itself is not a second endorsement.
  Signature self_sig =
      lead.registry.sign(kPublisher, sealed.header.canonical_payload());
  EXPECT_FALSE(lead.repl.record_vote(0, sealed.header.block_hash, self_sig));
  // Tampered tag fails signature verification.
  Signature bad = *vote;
  bad.tag[0] ^= 0x01;
  EXPECT_FALSE(lead.repl.record_vote(0, sealed.header.block_hash, bad));
  EXPECT_FALSE(lead.repl.committed(0));

  // The genuine vote still lands, exactly once.
  EXPECT_TRUE(lead.repl.record_vote(0, sealed.header.block_hash, *vote));
  EXPECT_FALSE(lead.repl.record_vote(0, sealed.header.block_hash, *vote));
  EXPECT_TRUE(lead.repl.committed(0));
}

TEST(ReplicatedLedger, ContradictingVoteHashThrowsFork) {
  Replica lead(0), f1(1);
  append_round(lead.ledger, 0);
  append_round(f1.ledger, 0);
  const SealedBlockHeader& sealed = lead.repl.propose(0);
  const auto vote = f1.repl.verify_and_vote(
      sealed.header, sealed.executor_sig, lead.ledger.block(0).records);
  ASSERT_TRUE(vote.has_value());
  Digest other = sealed.header.block_hash;
  other[5] ^= 0xFF;
  EXPECT_THROW(lead.repl.record_vote(0, other, *vote), std::runtime_error);
}

TEST(ReplicatedLedger, FollowerRefusesForkedProposal) {
  Replica lead(0), f1(1);
  append_round(lead.ledger, 0);
  // The follower's replica sealed a *different* round 0 (one record value
  // differs): every header field derived from the records now disagrees.
  f1.ledger.append(RecordKind::kReputation, 0, 0, kPublisher, 0.999);
  f1.ledger.seal_block();
  const SealedBlockHeader& sealed = lead.repl.propose(0);
  EXPECT_EQ(f1.repl.verify_and_vote(sealed.header, sealed.executor_sig,
                                    lead.ledger.block(0).records),
            std::nullopt);
}

TEST(ReplicatedLedger, FollowerRefusesTamperedRecords) {
  Replica lead(0), f1(1);
  append_round(lead.ledger, 0);
  append_round(f1.ledger, 0);
  const SealedBlockHeader& sealed = lead.repl.propose(0);
  auto records = lead.ledger.block(0).records;
  records[2].value += 1e-9;  // any perturbation breaks the digest match
  EXPECT_EQ(f1.repl.verify_and_vote(sealed.header, sealed.executor_sig,
                                    records),
            std::nullopt);
}

TEST(ReplicatedLedger, FollowerRefusesBadExecutorSignature) {
  Replica lead(0), f1(1);
  append_round(lead.ledger, 0);
  append_round(f1.ledger, 0);
  const SealedBlockHeader& sealed = lead.repl.propose(0);
  Signature forged = sealed.executor_sig;
  forged.tag[3] ^= 0x80;
  EXPECT_EQ(f1.repl.verify_and_vote(sealed.header, forged,
                                    lead.ledger.block(0).records),
            std::nullopt);
}

TEST(ReplicatedLedger, AuditProofVerifiesAgainstIndependentRegistry) {
  Replica lead(0), f1(1), f2(2);
  for (std::uint64_t r = 0; r < 3; ++r) commit_round(lead, f1, f2, r);

  for (NodeId w = 0; w < kWorkers; ++w) {
    const AuditProofBundle bundle =
        lead.repl.prove(RecordKind::kReputation, 1, w);
    ASSERT_TRUE(bundle.found) << "worker " << w;
    EXPECT_EQ(bundle.record.subject, w);
    EXPECT_EQ(bundle.record.round, 1u);
    EXPECT_EQ(bundle.headers.size(), 3u);  // chain pins the committed tip
    // The verifier's registry is a fresh derivation — nothing shared with
    // the prover beyond the public seed.
    AuditVerifier verifier = fresh_verifier();
    EXPECT_TRUE(verifier.verify(bundle));
    EXPECT_EQ(verifier.verified_count(), 3u);
  }
}

TEST(ReplicatedLedger, ProveOnlyServesCommittedBlocks) {
  Replica lead(0), f1(1), f2(2);
  commit_round(lead, f1, f2, 0);
  // Round 1 sealed + proposed but never endorsed: not committed.
  append_round(lead.ledger, 1);
  lead.repl.propose(1);
  EXPECT_FALSE(lead.repl.prove(RecordKind::kReputation, 1, 0).found);
  const AuditProofBundle bundle =
      lead.repl.prove(RecordKind::kReputation, 0, 0);
  ASSERT_TRUE(bundle.found);
  EXPECT_EQ(bundle.headers.size(), 1u);
}

TEST(ReplicatedLedger, TamperedBundlesFailVerification) {
  Replica lead(0), f1(1), f2(2);
  for (std::uint64_t r = 0; r < 2; ++r) commit_round(lead, f1, f2, r);
  const KeyRegistry pki =
      ReplicatedLedger::make_registry(kSeed, kWorkers, kServers);
  const AuditProofBundle good = lead.repl.prove(RecordKind::kReward, 1, 2);
  ASSERT_TRUE(good.found);
  ASSERT_TRUE(fresh_verifier().verify(good));

  {  // Forged record value: Merkle inclusion breaks.
    AuditProofBundle bad = good;
    bad.record.value *= 2.0;
    EXPECT_FALSE(fresh_verifier().verify(bad));
  }
  {  // Dropped vote: the block's certificate falls below quorum.
    AuditProofBundle bad = good;
    bad.headers[bad.block_index].votes.clear();
    EXPECT_FALSE(fresh_verifier().verify(bad));
  }
  {  // Duplicated voter padding the certificate does not count twice.
    AuditProofBundle bad = good;
    auto& votes = bad.headers[bad.block_index].votes;
    votes = {votes[0], votes[0]};
    EXPECT_FALSE(fresh_verifier().verify(bad));
  }
  {  // Rewritten header field: the recomputed block hash disagrees.
    AuditProofBundle bad = good;
    bad.headers[1].header.merkle_root[0] ^= 0x01;
    EXPECT_FALSE(fresh_verifier().verify(bad));
  }
  {  // Severed hash link between consecutive headers.
    AuditProofBundle bad = good;
    bad.headers[1].header.previous_hash[0] ^= 0x01;
    EXPECT_FALSE(fresh_verifier().verify(bad));
  }
  {  // Truncated chain hiding the block the record claims to live in.
    AuditProofBundle bad = good;
    bad.block_index = 5;
    EXPECT_FALSE(fresh_verifier().verify(bad));
  }
  {  // Worker-signed "executor" signature: wrong identity class.
    AuditProofBundle bad = good;
    bad.headers[bad.block_index].executor_sig = pki.sign(
        0, bad.headers[bad.block_index].header.canonical_payload());
    EXPECT_FALSE(fresh_verifier().verify(bad));
  }
  {  // A not-found bundle never verifies.
    AuditProofBundle missing =
        lead.repl.prove(RecordKind::kReward, 9, 2);
    EXPECT_FALSE(missing.found);
    EXPECT_FALSE(fresh_verifier().verify(missing));
  }
}

TEST(ReplicatedLedger, ProofIndependentOfWhichServerProves) {
  // Any server holding the certificates could serve the proof; here the
  // lead's bundle is checked against a follower's endorsed view of the
  // same block (their headers must be byte-equal).
  Replica lead(0), f1(1), f2(2);
  commit_round(lead, f1, f2, 0);
  const SealedBlockHeader* lead_view = lead.repl.sealed(0);
  const SealedBlockHeader* follower_view = f1.repl.sealed(0);
  ASSERT_NE(lead_view, nullptr);
  ASSERT_NE(follower_view, nullptr);
  EXPECT_EQ(lead_view->header, follower_view->header);
  EXPECT_EQ(lead_view->executor_sig, follower_view->executor_sig);
}

TEST(ReplicatedLedger, FollowerSelfCommitsOnObservedQuorum) {
  // A follower that holds the executor's signature plus enough broadcast
  // votes commits locally without ever talking to the executor again —
  // the property lead failover rests on (any survivor holds the
  // certificate).
  Replica lead(0), f1(1), f2(2);
  append_round(lead.ledger, 0);
  append_round(f1.ledger, 0);
  append_round(f2.ledger, 0);
  const SealedBlockHeader& sealed = lead.repl.propose(0);
  const auto& records = lead.ledger.block(0).records;
  // M=3, quorum 2: executor signature + own vote is already a quorum.
  const auto vote1 =
      f1.repl.verify_and_vote(sealed.header, sealed.executor_sig, records);
  ASSERT_TRUE(vote1.has_value());
  EXPECT_TRUE(f1.repl.committed(0));
  // And the other follower's broadcast vote still folds in.
  const auto vote2 =
      f2.repl.verify_and_vote(sealed.header, sealed.executor_sig, records);
  ASSERT_TRUE(vote2.has_value());
  EXPECT_TRUE(f1.repl.record_vote(0, sealed.header.block_hash, *vote2));
  EXPECT_EQ(f1.repl.sealed(0)->votes.size(), 2u);
}

// ---------------------------------------------------------------------------
// Anchored verification: a worker's AuditVerifier checks only the headers
// past the last one it verified. These pin what a suffix must satisfy and
// that anchored verification accepts exactly what genesis verification
// accepts.
// ---------------------------------------------------------------------------

TEST(AuditVerifier, CachedSuffixVerifiesOnlyFromItsAnchor) {
  // prove(from_header) ships only headers [from_header, tip). The cached
  // suffix verifies against a verifier anchored at from_header, never
  // against a fresh (genesis-anchored) one.
  Federation fed;
  fed.commit_rounds(0, 4);

  const AuditProofBundle full = fed.lead.repl.prove(RecordKind::kReward, 3, 1);
  ASSERT_TRUE(full.found);
  ASSERT_EQ(full.headers.size(), 4u);
  EXPECT_TRUE(fresh_verifier().verify(full));

  const AuditProofBundle cached =
      fed.lead.repl.prove(RecordKind::kReward, 3, 1, 2);
  ASSERT_TRUE(cached.found);
  EXPECT_EQ(cached.headers_from, 2u);
  ASSERT_EQ(cached.headers.size(), 2u);  // only the suffix travels
  AuditVerifier genesis = fresh_verifier();
  EXPECT_FALSE(genesis.verify(cached));
  EXPECT_EQ(genesis.verified_count(), 0u);
  AuditVerifier anchored = anchored_at(fed.lead, 2);
  EXPECT_TRUE(anchored.verify(cached));
  EXPECT_EQ(anchored.verified_count(), 4u);

  // A from_header beyond the tip clamps instead of underflowing: no header
  // travels, and the record proves into the Merkle root the anchored
  // verifier kept for block 3.
  const AuditProofBundle clamped =
      fed.lead.repl.prove(RecordKind::kReward, 3, 1, 99);
  ASSERT_TRUE(clamped.found);
  EXPECT_EQ(clamped.headers_from, 4u);
  EXPECT_TRUE(clamped.headers.empty());
  EXPECT_FALSE(fresh_verifier().verify(clamped));
  EXPECT_TRUE(anchored.verify(clamped));
  EXPECT_EQ(anchored.verified_count(), 4u);
}

TEST(AuditVerifier, RejectsSuffixNotLinkedToAnchor) {
  // Equivocating servers certify a chain that forks at block 2. A worker
  // anchored at 3 on the genuine chain is served the fork's suffix
  // [3, 5): its first header links to the fork's block 2, not the anchor.
  Federation genuine, forked;
  genuine.commit_rounds(0, 5);
  forked.commit_rounds(0, 2);
  commit_forked_round(forked, 2);
  forked.commit_rounds(3, 5);

  AuditVerifier verifier = anchored_at(genuine.lead, 3);
  const AuditProofBundle wrong =
      forked.lead.repl.prove(RecordKind::kReputation, 4, 1, 3);
  ASSERT_TRUE(wrong.found);
  EXPECT_FALSE(verifier.verify(wrong));
  EXPECT_EQ(verifier.verified_count(), 3u);  // the anchor did not move
  // The same fork verifies for a fresh verifier — its certificates are
  // genuine — so only the anchor link rejected it.
  EXPECT_TRUE(fresh_verifier().verify(
      forked.lead.repl.prove(RecordKind::kReputation, 4, 1)));
  EXPECT_TRUE(verifier.verify(
      genuine.lead.repl.prove(RecordKind::kReputation, 4, 1, 3)));
  EXPECT_EQ(verifier.verified_count(), 5u);
}

TEST(AuditVerifier, RejectsGapPastAnchor) {
  Federation fed;
  fed.commit_rounds(0, 5);
  AuditVerifier verifier = anchored_at(fed.lead, 2);
  // Headers from 3 on leave block 2 unverified: nothing links across.
  const AuditProofBundle gap =
      fed.lead.repl.prove(RecordKind::kReputation, 4, 1, 3);
  ASSERT_EQ(gap.headers_from, 3u);
  EXPECT_FALSE(verifier.verify(gap));
  EXPECT_EQ(verifier.verified_count(), 2u);
  EXPECT_TRUE(verifier.verify(
      fed.lead.repl.prove(RecordKind::kReputation, 4, 1, 2)));
  EXPECT_EQ(verifier.verified_count(), 5u);
}

TEST(AuditVerifier, RejectsForkAtAnchor) {
  // The fork replaces block 2, the anchor itself: the shipped header 2
  // links to the kept block 1 and carries a genuine certificate, but its
  // hash differs from the verified block 2.
  Federation genuine, forked;
  genuine.commit_rounds(0, 4);
  forked.commit_rounds(0, 2);
  commit_forked_round(forked, 2);
  forked.commit(3);

  AuditVerifier verifier = anchored_at(genuine.lead, 3);
  const AuditProofBundle fork =
      forked.lead.repl.prove(RecordKind::kReputation, 3, 1, 2);
  ASSERT_EQ(fork.headers_from, 2u);
  EXPECT_FALSE(verifier.verify(fork));
  EXPECT_EQ(verifier.verified_count(), 3u);
  // The genuine chain over the same span still verifies.
  EXPECT_TRUE(verifier.verify(
      genuine.lead.repl.prove(RecordKind::kReputation, 3, 1, 2)));
  EXPECT_EQ(verifier.verified_count(), 4u);
}

TEST(AuditVerifier, OldSuffixReplayedAfterAnchorMovedOnNeverMovesItBack) {
  // A retried round-2 proof, built while block 2 was the tip, lands after
  // a later answer moved the anchor to 6: it verifies against the kept
  // blocks and leaves the anchor where it is.
  Federation genuine, forked;
  genuine.commit_rounds(0, 3);
  forked.commit_rounds(0, 1);
  commit_forked_round(forked, 1);
  forked.commit(2);
  const AuditProofBundle old =
      genuine.lead.repl.prove(RecordKind::kReputation, 2, 1, 1);
  const AuditProofBundle old_fork =
      forked.lead.repl.prove(RecordKind::kReputation, 2, 1, 1);
  ASSERT_EQ(old.headers_from, 1u);
  ASSERT_EQ(old.headers.size(), 2u);  // [1, 3)
  genuine.commit_rounds(3, 6);

  AuditVerifier verifier = fresh_verifier();
  ASSERT_TRUE(verifier.verify(
      genuine.lead.repl.prove(RecordKind::kReputation, 5, 1)));
  ASSERT_EQ(verifier.verified_count(), 6u);
  EXPECT_TRUE(verifier.verify(old));
  EXPECT_EQ(verifier.verified_count(), 6u);
  // An old suffix of a fork does not link to the verified chain.
  EXPECT_FALSE(verifier.verify(old_fork));
  EXPECT_EQ(verifier.verified_count(), 6u);
  // The next round's suffix still starts at the unmoved anchor.
  genuine.commit(6);
  EXPECT_TRUE(verifier.verify(
      genuine.lead.repl.prove(RecordKind::kReputation, 6, 1, 6)));
  EXPECT_EQ(verifier.verified_count(), 7u);
}

TEST(AuditVerifier, ReplayBehindKeptBlocksIsRejected) {
  // A suffix whose first header's parent left the kept blocks cannot be
  // linked any more; a genesis-anchored chain always can.
  Federation fed;
  fed.commit_rounds(0, 2);
  const AuditProofBundle old =
      fed.lead.repl.prove(RecordKind::kReputation, 1, 1, 1);
  const std::uint64_t tip = AuditVerifier::kKeptBlocks + 3;
  fed.commit_rounds(2, tip);

  AuditVerifier verifier = fresh_verifier();
  ASSERT_TRUE(verifier.verify(
      fed.lead.repl.prove(RecordKind::kReputation, tip - 1, 1)));
  EXPECT_FALSE(verifier.verify(old));
  EXPECT_EQ(verifier.verified_count(), tip);
  EXPECT_TRUE(verifier.verify(
      fed.lead.repl.prove(RecordKind::kReputation, 1, 1, 0)));
  EXPECT_EQ(verifier.verified_count(), tip);
}

/// One way to tamper with a bundle. Header tampers hit the header at
/// absolute chain index `target`, which the bundle must ship.
struct Tamper {
  std::string name;
  bool hits_header;
  std::function<void(AuditProofBundle&, SealedBlockHeader*)> apply;
};

std::vector<Tamper> tampers() {
  const KeyRegistry pki =
      ReplicatedLedger::make_registry(kSeed, kWorkers, kServers);
  return {
      {"none", false, [](AuditProofBundle&, SealedBlockHeader*) {}},
      {"record value", false,
       [](AuditProofBundle& b, SealedBlockHeader*) { b.record.value *= 2.0; }},
      {"record signature", false,
       [](AuditProofBundle& b, SealedBlockHeader*) {
         b.record.signature.tag[0] ^= 0x01;
       }},
      {"merkle sibling", false,
       [](AuditProofBundle& b, SealedBlockHeader*) {
         b.proof.front().sibling[0] ^= 0x01;
       }},
      {"block index", false,
       [](AuditProofBundle& b, SealedBlockHeader*) { ++b.block_index; }},
      {"merkle root", true,
       [](AuditProofBundle&, SealedBlockHeader* h) {
         h->header.merkle_root[0] ^= 0x01;
       }},
      {"previous hash", true,
       [](AuditProofBundle&, SealedBlockHeader* h) {
         h->header.previous_hash[0] ^= 0x01;
       }},
      {"block hash", true,
       [](AuditProofBundle&, SealedBlockHeader* h) {
         h->header.block_hash[0] ^= 0x01;
       }},
      {"index", true,
       [](AuditProofBundle&, SealedBlockHeader* h) { ++h->header.index; }},
      {"votes dropped", true,
       [](AuditProofBundle&, SealedBlockHeader* h) { h->votes.clear(); }},
      {"duplicate voter", true,
       [](AuditProofBundle&, SealedBlockHeader* h) {
         h->votes = {h->votes[0], h->votes[0]};
       }},
      {"worker-signed executor", true,
       [pki](AuditProofBundle&, SealedBlockHeader* h) {
         h->executor_sig = pki.sign(0, h->header.canonical_payload());
       }},
      {"executor tag", true,
       [](AuditProofBundle&, SealedBlockHeader* h) {
         h->executor_sig.tag[0] ^= 0x01;
       }},
  };
}

TEST(AuditVerifier, AnchoredEqualsGenesisVerificationAtEveryAnchor) {
  // For every anchor a of a 40-block chain, a verifier anchored at a
  // checking the suffix [a, tip) accepts exactly what a fresh verifier
  // checking [0, tip) accepts, under every tamper of the record, its proof
  // or a shipped header. Audited records: the newest block's (what a
  // worker audits each round; tampers hit headers a, the middle of the
  // suffix and the tip) and block a-1's, which the suffix elides (tampers
  // hit header a, the first one linked to the anchor).
  constexpr std::uint64_t kTip = 40;
  Federation fed;
  fed.commit_rounds(0, kTip);
  const std::vector<Tamper> cases = tampers();
  // Genesis verdicts by (round, tamper, header): the newest record's
  // recur across anchors.
  std::map<std::tuple<std::uint64_t, std::size_t, std::uint64_t>, bool>
      genesis;
  std::size_t accepted = 0;
  std::size_t checks = 0;
  for (std::uint64_t a = 0; a <= kTip; ++a) {
    const AuditVerifier anchored = anchored_at(fed.lead, a);
    std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> audits;
    std::vector<std::uint64_t> targets;
    for (std::uint64_t t : {a, (a + kTip) / 2, kTip - 1}) {
      if (t >= a && t < kTip &&
          std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    audits.emplace_back(kTip - 1, targets);
    if (a > 0 && a < kTip) {
      audits.emplace_back(a - 1, std::vector<std::uint64_t>{a});
    }
    for (const auto& [round, header_targets] : audits) {
      const AuditProofBundle full =
          fed.lead.repl.prove(RecordKind::kReputation, round, 2);
      const AuditProofBundle suffix =
          fed.lead.repl.prove(RecordKind::kReputation, round, 2, a);
      ASSERT_EQ(suffix.headers_from, a);
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const Tamper& tamper = cases[c];
        const std::vector<std::uint64_t> hit =
            tamper.hits_header ? header_targets
                               : std::vector<std::uint64_t>{0};
        for (const std::uint64_t t : hit) {
          const auto key = std::make_tuple(round, c, t);
          if (!genesis.contains(key)) {
            AuditProofBundle g = full;
            tamper.apply(g, tamper.hits_header ? &g.headers[t] : nullptr);
            genesis[key] = fresh_verifier().verify(g);
          }
          const bool genesis_ok = genesis[key];
          AuditProofBundle s = suffix;
          tamper.apply(s, tamper.hits_header ? &s.headers[t - a] : nullptr);
          AuditVerifier from_anchor = anchored;
          const bool anchored_ok = from_anchor.verify(s);
          EXPECT_EQ(anchored_ok, genesis_ok)
              << "anchor " << a << " round " << round << " tamper "
              << tamper.name << " header " << t;
          EXPECT_EQ(genesis_ok, tamper.name == "none")
              << "anchor " << a << " round " << round << " tamper "
              << tamper.name << " header " << t;
          EXPECT_EQ(from_anchor.verified_count(), anchored_ok ? kTip : a);
          accepted += anchored_ok ? 1 : 0;
          ++checks;
        }
      }
    }
  }
  EXPECT_EQ(accepted, 2 * kTip);  // every untampered bundle
  EXPECT_GT(checks, 1000u);
}

TEST(ReplicatedLedger, AdoptCommittedInstallsVerifiedCertificates) {
  // The rejoin path: f2 missed the vote exchange for rounds 0-1 but holds
  // the replayed blocks in its local ledger; adopting the lead's
  // certificates commits them without re-voting.
  Replica lead(0), f1(1), f2(2);
  for (std::uint64_t r = 0; r < 2; ++r) {
    append_round(lead.ledger, r);
    append_round(f1.ledger, r);
    append_round(f2.ledger, r);
    const SealedBlockHeader& sealed = lead.repl.propose(r);
    const auto vote = f1.repl.verify_and_vote(
        sealed.header, sealed.executor_sig, lead.ledger.block(r).records);
    ASSERT_TRUE(vote.has_value());
    lead.repl.record_vote(r, sealed.header.block_hash, *vote);
  }
  ASSERT_EQ(lead.repl.committed_count(), 2u);
  EXPECT_EQ(f2.repl.committed_count(), 0u);

  for (std::uint64_t r = 0; r < 2; ++r) {
    f2.repl.adopt_committed(*lead.repl.sealed(r));
  }
  EXPECT_EQ(f2.repl.committed_count(), 2u);
  EXPECT_EQ(f2.repl.sealed(1)->header, lead.repl.sealed(1)->header);
  // Idempotent: re-adopting the same certificate changes nothing.
  f2.repl.adopt_committed(*lead.repl.sealed(1));
  EXPECT_EQ(f2.repl.committed_count(), 2u);
}

TEST(ReplicatedLedger, AdoptCommittedRejectsForgedCertificates) {
  Replica lead(0), f1(1), f2(2);
  commit_round(lead, f1, f2, 0);
  const SealedBlockHeader good = *lead.repl.sealed(0);

  Replica late(2);
  append_round(late.ledger, 0);
  {  // Below-quorum certificate.
    SealedBlockHeader bad = good;
    bad.votes.clear();
    EXPECT_THROW(late.repl.adopt_committed(bad), std::runtime_error);
  }
  {  // Tampered vote signature.
    SealedBlockHeader bad = good;
    bad.votes[0].tag[0] ^= 0x01;
    EXPECT_THROW(late.repl.adopt_committed(bad), std::runtime_error);
  }
  {  // Duplicate voters padding a fake quorum.
    SealedBlockHeader bad = good;
    bad.votes = {bad.executor_sig};
    EXPECT_THROW(late.repl.adopt_committed(bad), std::runtime_error);
  }
  EXPECT_EQ(late.repl.committed_count(), 0u);
}

TEST(ReplicatedLedger, AdoptCommittedRejectsForkedLocalBlock) {
  // The certificate is genuine but this replica's local block differs —
  // the sync peer and we disagree on history, which must never be papered
  // over by an adopted certificate.
  Replica lead(0), f1(1), f2(2);
  commit_round(lead, f1, f2, 0);

  Replica forked(2);
  forked.ledger.append(RecordKind::kReputation, 0, 0, kPublisher, 0.999);
  forked.ledger.seal_block();
  EXPECT_THROW(forked.repl.adopt_committed(*lead.repl.sealed(0)),
               std::runtime_error);
  EXPECT_EQ(forked.repl.committed_count(), 0u);
}

// The header payload every executor signature and vote covers, and the
// block hash, recorded with the ostringstream code that built them before
// std::to_chars did.
TEST(BlockHeaderPayload, MatchesRecordedBytes) {
  BlockHeader h;
  h.index = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < 32; ++i) {
    h.previous_hash[i] = static_cast<std::uint8_t>(i);
    h.merkle_root[i] = static_cast<std::uint8_t>(0xff - i);
    h.block_hash[i] = static_cast<std::uint8_t>(0xa5 ^ (i * 7));
  }
  EXPECT_EQ(h.canonical_payload(),
            "blockheader|18446744073709551615|"
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f|"
            "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0efeeedecebeae9e8e7e6e5e4e3e2e1e0|"
            "a5a2abb0b9868f949d9ae3e8f1fec7ccd5d2db2029363f040d0a1318616e777c");
  EXPECT_EQ(to_hex(h.compute_hash()),
            "abd07ce394490988ddcd7d769d699d944c3b2772708ab16b458ca10dc874312c");
  const BlockHeader genesis;
  EXPECT_EQ(genesis.canonical_payload(),
            "blockheader|0|" + std::string(64, '0') + '|' +
                std::string(64, '0') + '|' + std::string(64, '0'));
  EXPECT_EQ(to_hex(genesis.compute_hash()),
            "cb925f6a2d8ed394764c1e0a657d17cd911bc43c586a57683e62040ebd4b2101");
}

}  // namespace
}  // namespace fifl::chain
