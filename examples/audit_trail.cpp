// Audit-trail walkthrough (Sec. 4.5): the blockchain layer end to end.
//
// 1. Runs a short FIFL training session, sealing one block per round.
// 2. Verifies the whole chain and a Merkle membership proof for one
//    worker's reputation record ("my reputation for round t is on-chain").
// 3. Simulates a manipulating server forging a worker's reputation, runs
//    the task publisher's audit, and shows the cheat being traced by its
//    signature and blacklisted from future server selection.
//
//   ./build/examples/audit_trail [--rounds=8]
#include <cstdio>

#include "core/fifl.hpp"
#include "data/synthetic.hpp"
#include "fl/simulator.hpp"
#include "nn/models.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace fifl;
  const util::Config cfg = util::Config::from_args(argc, argv);
  const auto rounds = static_cast<std::size_t>(cfg.get_int("rounds", 8));

  // --- a small federation with one attacker ------------------------------
  auto spec = data::mnist_like(6 * 200);
  spec.image_size = 28;
  auto split = data::make_synthetic_split(spec, 200);
  std::vector<fl::BehaviourPtr> behaviours;
  for (int i = 0; i < 5; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(6.0));
  fl::ModelFactory factory = [](util::Rng& rng) {
    return nn::make_lenet({.channels = 1, .image_size = 28, .classes = 10}, rng);
  };
  util::Rng rng(5);
  fl::Simulator sim({}, factory,
                    fl::make_worker_setups(split.train, std::move(behaviours), rng),
                    split.test);

  core::FiflConfig engine_cfg;
  engine_cfg.servers = 2;
  core::FiflEngine engine(engine_cfg, sim.worker_count(), sim.parameter_count());

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto uploads = sim.collect_uploads();
    const auto report = engine.process_round(uploads);
    sim.apply_gradient(report.global_gradient);
  }
  const auto& ledger = engine.ledger();
  std::printf("1. trained %zu rounds -> %zu blocks sealed\n", rounds,
              ledger.block_count());
  std::printf("   chain integrity: %s\n",
              ledger.verify_chain() ? "VALID" : "BROKEN");

  // --- Merkle membership proof -------------------------------------------
  const chain::Block& block = ledger.block(rounds - 1);
  std::size_t record_index = 0;
  for (std::size_t i = 0; i < block.records.size(); ++i) {
    if (block.records[i].kind == chain::RecordKind::kReputation &&
        block.records[i].subject == 0) {
      record_index = i;
      break;
    }
  }
  const auto proof = ledger.prove_record(rounds - 1, record_index);
  const bool proven = chain::MerkleTree::verify(
      block.records[record_index].digest(), proof, block.merkle_root);
  std::printf("2. worker 0's round-%zu reputation record: value=%.4f, "
              "Merkle proof (%zu hashes) %s\n",
              rounds - 1, block.records[record_index].value, proof.size(),
              proven ? "VERIFIES" : "FAILS");

  // --- a manipulating server ----------------------------------------------
  // Rebuild the scenario the audit exists for: a second ledger where a
  // malicious server (node 3) writes an inflated reputation for the
  // attacker (worker 5) alongside the honest leader's records.
  chain::KeyRegistry registry(0xbad);
  for (chain::NodeId n = 0; n < 8; ++n) registry.register_node(n);
  chain::Ledger forged(&registry);
  // Honest detection outcome for worker 5 was "rejected" (r=0)...
  forged.append(chain::RecordKind::kDetection, 0, 5, 0, 0.0);
  // ...the honest leader records the true reputation R = (1-γ)*0 = 0...
  forged.append(chain::RecordKind::kReputation, 0, 5, 0, 0.0);
  // ...but server 3 writes a forged reputation of 0.95.
  forged.append(chain::RecordKind::kReputation, 0, 5, 3, 0.95);
  forged.seal_block();
  std::printf("3. forged ledger sealed: worker 5 has two on-chain "
              "reputations (0.0000 by server 0, 0.9500 by server 3)\n");

  core::ServerSelector selector(2);
  core::AuditService audit(&forged, &selector);
  const auto cheats = audit.audit_reputation(
      /*worker=*/5, /*round=*/0, core::ReputationConfig{.gamma = 0.1});
  std::printf("   task publisher recomputes from the detection records and "
              "audits:\n");
  for (chain::NodeId cheat : cheats) {
    std::printf("   -> server %u's record deviates: traced by signature and "
                "BLACKLISTED\n", cheat);
  }
  std::printf("   blacklist now: {");
  for (chain::NodeId n : selector.blacklisted()) std::printf(" %u", n);
  std::printf(" } — excluded from all future server selection\n");
  return cheats.empty() ? 1 : 0;
}
