// Audit-ledger substrate throughput: SHA-256 hashing, HMAC signing, block
// sealing (one FIFL round's records), chain verification, and Merkle
// proofs. The audit layer is a measurable share of a networked round: in
// a traced cluster_tcp run (M=2, N=8, 4-vCPU Xeon) the lead's per-round
// SHA-256 of θ plus its ledger work took 2.3 of 12.1 ms (19%) on the
// portable compression and 0.5 of 9.5 ms (5%) on the SHA extensions.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "chain/ledger.hpp"
#include "chain/replicated.hpp"
#include "chain/sha256_compress.hpp"
#include "net/messages.hpp"

namespace {

using namespace fifl::chain;

// One SHA-256 of range(0) bytes — up to θ's width in cluster_tcp
// (279,880 B, the per-round parameter_hash) — through the compression
// range(1) names: 0 = portable, 1 = SHA extensions. The label names the
// backend; the SHA-extensions leg reports an error where the build or the
// CPU lacks them. `sha256()` itself runs the backend Sha256 selected.
void BM_Sha256(benchmark::State& state) {
  const bool shani = state.range(1) != 0;
  const detail::CompressFn compress =
      shani ? detail::shani_compress() : &detail::compress_portable;
  if (shani && (compress == nullptr || !detail::cpu_supports_shani())) {
    state.SkipWithError("no SHA extensions in this build or CPU");
    return;
  }
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    Sha256 h(compress);
    h.update(payload);
    benchmark::DoNotOptimize(h.finish());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(detail::compress_name(compress));
}
BENCHMARK(BM_Sha256)->ArgsProduct({{64, 1024, 65536, 279880}, {0, 1}});

void BM_HmacSign(benchmark::State& state) {
  KeyRegistry registry(1);
  registry.register_node(0);
  const std::string message = "detection|42|7|0|0x1.8p+0";
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.sign(0, message));
  }
}
BENCHMARK(BM_HmacSign);

void BM_SealRoundBlock(benchmark::State& state) {
  // One block = 4 records per worker (detection/reputation/contribution/
  // reward), N workers.
  const auto workers = static_cast<std::size_t>(state.range(0));
  KeyRegistry registry(1);
  for (NodeId n = 0; n <= workers; ++n) registry.register_node(n);
  for (auto _ : state) {
    Ledger ledger(&registry);
    for (std::size_t w = 0; w < workers; ++w) {
      const auto id = static_cast<NodeId>(w);
      ledger.append(RecordKind::kDetection, 0, id, 0, 1.0);
      ledger.append(RecordKind::kReputation, 0, id, 0, 0.5);
      ledger.append(RecordKind::kContribution, 0, id, 0, 0.1);
      ledger.append(RecordKind::kReward, 0, id, static_cast<NodeId>(workers), 0.1);
    }
    benchmark::DoNotOptimize(ledger.seal_block());
  }
}
BENCHMARK(BM_SealRoundBlock)->Arg(10)->Arg(20)->Arg(100);

void BM_VerifyChain(benchmark::State& state) {
  const auto blocks = static_cast<std::size_t>(state.range(0));
  KeyRegistry registry(1);
  registry.register_node(0);
  Ledger ledger(&registry);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (NodeId w = 0; w < 10; ++w) {
      ledger.append(RecordKind::kReputation, b, w, 0, 0.5);
    }
    ledger.seal_block();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger.verify_chain());
  }
}
BENCHMARK(BM_VerifyChain)->Arg(10)->Arg(100);

void BM_QuorumSeal(benchmark::State& state) {
  // Full replicated-commit cycle for one round's block: append + seal on
  // every replica, executor proposes, both followers recompute and vote,
  // executor records votes to quorum. Time-per-iteration is the quorum-
  // seal latency; items/sec is audit records per second through the
  // whole protocol (M=3 servers, 4 records per worker).
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t servers = 3;
  constexpr std::uint64_t seed = 0x51f7;
  struct Replica {
    KeyRegistry registry;
    Ledger ledger;
    ReplicatedLedger repl;
    Replica(std::uint32_t w, std::uint32_t idx)
        : registry(ReplicatedLedger::make_registry(seed, w, servers)),
          ledger(&registry),
          repl(&ledger, seed, w, servers, static_cast<NodeId>(w + idx)) {}
  };
  Replica lead(workers, 0), f1(workers, 1), f2(workers, 2);
  const auto publisher = static_cast<NodeId>(workers);
  std::uint64_t round = 0;
  for (auto _ : state) {
    for (Ledger* ledger : {&lead.ledger, &f1.ledger, &f2.ledger}) {
      for (std::uint32_t w = 0; w < workers; ++w) {
        const auto id = static_cast<NodeId>(w);
        ledger->append(RecordKind::kDetection, round, id, publisher, 1.0);
        ledger->append(RecordKind::kReputation, round, id, publisher, 0.5);
        ledger->append(RecordKind::kContribution, round, id, publisher, 0.1);
        ledger->append(RecordKind::kReward, round, id, publisher, 0.1);
      }
      ledger->seal_block();
    }
    const SealedBlockHeader& sealed = lead.repl.propose(round);
    const auto& records = lead.ledger.block(round).records;
    for (Replica* follower : {&f1, &f2}) {
      const auto vote = follower->repl.verify_and_vote(
          sealed.header, sealed.executor_sig, records);
      lead.repl.record_vote(round, sealed.header.block_hash, *vote);
    }
    if (!lead.repl.committed(round)) state.SkipWithError("commit failed");
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * workers));
}
BENCHMARK(BM_QuorumSeal)->Arg(10)->Arg(100);

void BM_AuditProveAndVerify(benchmark::State& state) {
  // What a worker's audit costs each round at a given chain length: the
  // server's prove() of the newest block's record, shipping only the
  // header past the worker's anchor, plus the worker's AuditVerifier
  // checking that suffix. Each iteration starts from a copy of a verifier
  // anchored one block behind the tip (the copy is not timed).
  // `headers_verified` counts the headers that audit certified: the same
  // at every chain length, or the audit would still grow with the chain.
  constexpr std::uint32_t workers = 10;
  constexpr std::uint32_t servers = 1;  // single server: propose == commit
  constexpr std::uint64_t seed = 0x51f7;
  KeyRegistry registry = ReplicatedLedger::make_registry(seed, workers, servers);
  Ledger ledger(&registry);
  ReplicatedLedger lead(&ledger, seed, workers, servers,
                        static_cast<NodeId>(workers));
  const auto blocks = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (std::uint32_t w = 0; w < workers; ++w) {
      ledger.append(RecordKind::kReputation, b, static_cast<NodeId>(w),
                    static_cast<NodeId>(workers), 0.5);
    }
    ledger.seal_block();
    lead.propose(b);  // M=1: the executor's own seal is the quorum
  }
  // The worker as it stands after auditing round blocks - 2, whose answer
  // pinned the chain up to block blocks - 2.
  AuditVerifier anchored(seed, workers, servers);
  {
    AuditProofBundle bundle =
        lead.prove(RecordKind::kReputation, blocks - 2, NodeId{3});
    bundle.headers.pop_back();
    if (!anchored.verify(bundle)) state.SkipWithError("anchoring failed");
  }
  std::uint64_t headers_verified = 0;
  for (auto _ : state) {
    AuditVerifier worker = anchored;
    const auto start = std::chrono::steady_clock::now();
    const AuditProofBundle bundle =
        lead.prove(RecordKind::kReputation, blocks - 1, NodeId{3},
                   worker.verified_count());
    const bool ok = worker.verify(bundle);
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    if (!ok) {
      state.SkipWithError("audit failed");
      break;
    }
    headers_verified = worker.verified_count() - anchored.verified_count();
  }
  state.counters["headers_verified"] =
      benchmark::Counter(static_cast<double>(headers_verified));
}
BENCHMARK(BM_AuditProveAndVerify)->Arg(16)->Arg(128)->Arg(1024)->UseManualTime();

void BM_AuditProofBytes(benchmark::State& state) {
  // Wire cost of one audit proof at a given chain length, full versus
  // header-cached: a worker that has verified all but the newest header
  // receives headers [tip-1, tip) instead of the whole genesis-anchored
  // chain. The counters record both encoded payload sizes so the smoke
  // gate can assert the cache actually shrinks the message.
  constexpr std::uint32_t workers = 10;
  constexpr std::uint32_t servers = 1;  // single server: propose == commit
  constexpr std::uint64_t seed = 0x51f7;
  KeyRegistry registry = ReplicatedLedger::make_registry(seed, workers, servers);
  Ledger ledger(&registry);
  ReplicatedLedger lead(&ledger, seed, workers, servers,
                        static_cast<NodeId>(workers));
  const auto blocks = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (std::uint32_t w = 0; w < workers; ++w) {
      ledger.append(RecordKind::kReputation, b, static_cast<NodeId>(w),
                    static_cast<NodeId>(workers), 0.5);
    }
    ledger.seal_block();
    lead.propose(b);
  }
  const std::uint64_t round = blocks - 1;
  std::size_t full_bytes = 0;
  std::size_t cached_bytes = 0;
  for (auto _ : state) {
    const fifl::net::AuditProofMsg full{
        round, 3, round, lead.prove(RecordKind::kReputation, round, NodeId{3})};
    const fifl::net::AuditProofMsg cached{
        round, 3, round,
        lead.prove(RecordKind::kReputation, round, NodeId{3}, blocks - 1)};
    full_bytes = fifl::net::encode_payload(full).size();
    cached_bytes = fifl::net::encode_payload(cached).size();
    benchmark::DoNotOptimize(full_bytes);
    benchmark::DoNotOptimize(cached_bytes);
  }
  state.counters["full_bytes"] =
      benchmark::Counter(static_cast<double>(full_bytes));
  state.counters["cached_bytes"] =
      benchmark::Counter(static_cast<double>(cached_bytes));
}
BENCHMARK(BM_AuditProofBytes)->Arg(16)->Arg(128);

void BM_MerkleProveAndVerify(benchmark::State& state) {
  const auto leaves_n = static_cast<std::size_t>(state.range(0));
  std::vector<Digest> leaves;
  leaves.reserve(leaves_n);
  for (std::size_t i = 0; i < leaves_n; ++i) {
    leaves.push_back(sha256("leaf" + std::to_string(i)));
  }
  MerkleTree tree(leaves);
  for (auto _ : state) {
    const auto proof = tree.prove(leaves_n / 2);
    benchmark::DoNotOptimize(
        MerkleTree::verify(leaves[leaves_n / 2], proof, tree.root()));
  }
}
BENCHMARK(BM_MerkleProveAndVerify)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
