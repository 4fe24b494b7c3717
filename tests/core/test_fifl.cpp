#include "core/fifl.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace fifl::core {
namespace {

// Synthetic gradient rounds: honest workers draw gradients near a shared
// direction; attackers upload its negation scaled by p_s.
std::vector<fl::Upload> make_round(std::size_t workers, std::size_t dims,
                                   const std::vector<bool>& attacker,
                                   util::Rng& rng, double p_s = 4.0) {
  std::vector<float> direction(dims);
  for (auto& v : direction) v = static_cast<float>(rng.gaussian());
  std::vector<fl::Upload> uploads(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    uploads[i].worker = static_cast<chain::NodeId>(i);
    uploads[i].samples = 100;
    uploads[i].gradient = fl::Gradient(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      const float honest =
          direction[d] + static_cast<float>(rng.gaussian(0.0, 0.3));
      uploads[i].gradient[d] =
          attacker[i] ? static_cast<float>(-p_s) * honest : honest;
    }
    uploads[i].ground_truth_attack = attacker[i];
  }
  return uploads;
}

FiflConfig default_config(std::size_t servers = 2) {
  FiflConfig cfg;
  cfg.servers = servers;
  cfg.detection.threshold = 0.0;
  return cfg;
}

TEST(FiflEngine, ConstructionValidation) {
  EXPECT_THROW(FiflEngine(default_config(), 0, 100), std::invalid_argument);
  EXPECT_THROW(FiflEngine(default_config(5), 3, 100), std::invalid_argument);
  FiflEngine engine(default_config(2), 4, 100);
  EXPECT_EQ(engine.workers(), 4u);
  EXPECT_EQ(engine.publisher(), 4u);
  EXPECT_EQ(engine.server_members().size(), 2u);
}

TEST(FiflEngine, UploadCountMismatchThrows) {
  FiflEngine engine(default_config(), 4, 16);
  util::Rng rng(1);
  auto uploads = make_round(3, 16, {false, false, false}, rng);
  EXPECT_THROW((void)engine.process_round(uploads), std::invalid_argument);
}

TEST(FiflEngine, HonestRoundAcceptsEveryoneAndPaysFairly) {
  FiflEngine engine(default_config(), 5, 32);
  util::Rng rng(2);
  const auto uploads = make_round(5, 32, std::vector<bool>(5, false), rng);
  const RoundReport report = engine.process_round(uploads);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.detection.accepted[i], 1) << i;
    EXPECT_GT(report.rewards[i], 0.0) << i;
  }
  EXPECT_GT(report.fairness, 0.999);
  // Eq. 15: Σ I_i = R̄ · pool when all contributions are positive and
  // reputations are equal; after one positive event R = γ.
  double total = 0.0;
  for (double r : report.rewards) total += r;
  EXPECT_NEAR(total,
              engine.config().reputation.gamma *
                  engine.config().incentive.reward_pool,
              1e-9);
}

TEST(FiflEngine, AttackersAreRejectedAndReputationDrops) {
  FiflEngine engine(default_config(), 6, 32);
  util::Rng rng(3);
  const std::vector<bool> attacker{false, false, false, false, true, true};
  for (int round = 0; round < 10; ++round) {
    const auto uploads = make_round(6, 32, attacker, rng);
    const RoundReport report = engine.process_round(uploads);
    EXPECT_EQ(report.detection.accepted[4], 0);
    EXPECT_EQ(report.detection.accepted[5], 0);
  }
  EXPECT_LT(engine.reputation().reputation(4), 0.01);
  EXPECT_GT(engine.reputation().reputation(0), 0.6);
}

TEST(FiflEngine, AggregateExcludesAttackerGradients) {
  FiflEngine engine(default_config(), 4, 16);
  util::Rng rng(4);
  const std::vector<bool> attacker{false, false, false, true};
  const auto uploads = make_round(4, 16, attacker, rng, 8.0);
  const RoundReport report = engine.process_round(uploads);
  // The aggregate must be close to the honest mean, unaffected by the
  // large flipped gradient.
  fl::Gradient honest_mean(16);
  for (std::size_t i = 0; i < 3; ++i) {
    honest_mean.axpy(1.0f / 3.0f, uploads[i].gradient);
  }
  double dist = 0.0;
  for (std::size_t d = 0; d < 16; ++d) {
    const double diff = static_cast<double>(report.global_gradient[d]) -
                        static_cast<double>(honest_mean[d]);
    dist += diff * diff;
  }
  EXPECT_LT(dist, 1e-6);
}

TEST(FiflEngine, AttackersEarnNoPositiveRewards) {
  FiflConfig cfg = default_config();
  cfg.reputation.initial = 1.0;  // so punishments are visible immediately
  FiflEngine engine(cfg, 5, 32);
  util::Rng rng(5);
  const std::vector<bool> attacker{false, false, false, false, true};
  for (int round = 0; round < 5; ++round) {
    const auto report = engine.process_round(make_round(5, 32, attacker, rng));
    EXPECT_LE(report.rewards[4], 0.0);
  }
  EXPECT_LT(engine.cumulative().total(4), 0.0);
  EXPECT_GT(engine.cumulative().total(0), 0.0);
}

TEST(FiflEngine, LedgerRecordsEveryRoundAndVerifies) {
  FiflEngine engine(default_config(), 4, 16);
  util::Rng rng(6);
  for (int round = 0; round < 3; ++round) {
    (void)engine.process_round(make_round(4, 16, std::vector<bool>(4, false), rng));
  }
  EXPECT_EQ(engine.ledger().block_count(), 3u);
  EXPECT_TRUE(engine.ledger().verify_chain());
  // 4 record kinds per worker per round.
  EXPECT_EQ(engine.ledger().block(0).records.size(), 16u);
}

TEST(FiflEngine, LedgerCanBeDisabled) {
  FiflConfig cfg = default_config();
  cfg.record_to_ledger = false;
  FiflEngine engine(cfg, 4, 16);
  util::Rng rng(7);
  (void)engine.process_round(make_round(4, 16, std::vector<bool>(4, false), rng));
  EXPECT_EQ(engine.ledger().block_count(), 0u);
}

TEST(FiflEngine, ServersReselectToHighReputationWorkers) {
  // Following the Sec. 4.5 protocol: the task publisher first selects the
  // initial cluster by verification score (attackers score low there),
  // then per-round reputation re-selection keeps attackers out forever.
  FiflConfig cfg = default_config(2);
  FiflEngine engine(cfg, 5, 32);
  const std::vector<bool> attacker{true, true, false, false, false};
  engine.initialize_servers(std::vector<double>{0.2, 0.3, 0.9, 0.85, 0.8});
  util::Rng rng(8);
  for (int round = 0; round < 8; ++round) {
    (void)engine.process_round(make_round(5, 32, attacker, rng));
    for (chain::NodeId member : engine.server_members()) {
      EXPECT_GE(member, 2u) << "attacker serving at round " << round;
    }
  }
  EXPECT_LT(engine.reputation().reputation(0), 0.01);
  EXPECT_GT(engine.reputation().reputation(2), 0.5);
}

TEST(FiflEngine, CompromisedInitialClusterInvertsDetection) {
  // Known limitation the paper's server-selection step exists to prevent:
  // if attackers control the benchmark, honest gradients look "abnormal"
  // and the attackers accept each other. Documented failure mode.
  FiflConfig cfg = default_config(2);
  FiflEngine engine(cfg, 5, 32);  // default cluster = workers 0,1
  const std::vector<bool> attacker{true, true, false, false, false};
  util::Rng rng(88);
  const auto report = engine.process_round(make_round(5, 32, attacker, rng));
  EXPECT_EQ(report.detection.accepted[0], 1);  // attackers self-accept
  EXPECT_EQ(report.detection.accepted[2], 0);  // honest rejected
}

TEST(FiflEngine, ReselectionCanBeDisabled) {
  FiflConfig cfg = default_config(2);
  cfg.reselect_servers = false;
  FiflEngine engine(cfg, 5, 32);
  util::Rng rng(9);
  const auto before = engine.server_members();
  (void)engine.process_round(make_round(5, 32, std::vector<bool>(5, false), rng));
  EXPECT_EQ(engine.server_members(), before);
}

TEST(FiflEngine, InitializeServersUsesVerificationScores) {
  FiflEngine engine(default_config(2), 5, 32);
  const std::vector<double> scores{0.1, 0.2, 0.9, 0.8, 0.3};
  engine.initialize_servers(scores);
  EXPECT_EQ(engine.server_members(), (std::vector<chain::NodeId>{2, 3}));
  EXPECT_THROW(engine.initialize_servers(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(FiflEngine, DroppedServerUploadFallsBackToSubstitute) {
  FiflEngine engine(default_config(2), 5, 32);
  util::Rng rng(10);
  auto uploads = make_round(5, 32, std::vector<bool>(5, false), rng);
  uploads[0].arrived = false;  // worker 0 is a default server
  uploads[0].gradient.zero();
  const RoundReport report = engine.process_round(uploads);
  // A substitute served instead of worker 0.
  for (chain::NodeId member : report.servers) EXPECT_NE(member, 0u);
  // Worker 0 got an uncertain event, not a negative one.
  EXPECT_EQ(report.detection.uncertain[0], 1);
  EXPECT_EQ(engine.reputation().uncertains(0), 1u);
}

TEST(FiflEngine, CentralizedAndDecentralizedTopologiesWork) {
  util::Rng rng(11);
  for (std::size_t servers : {std::size_t{1}, std::size_t{5}}) {
    FiflEngine engine(default_config(servers), 5, 35);
    const auto report =
        engine.process_round(make_round(5, 35, std::vector<bool>(5, false), rng));
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(report.detection.accepted[i], 1) << "M=" << servers;
    }
  }
}

TEST(FiflEngine, RewardsScaleWithRewardPool) {
  FiflConfig cfg = default_config();
  cfg.incentive.reward_pool = 100.0;
  cfg.reputation.initial = 1.0;
  FiflEngine engine(cfg, 4, 16);
  util::Rng rng(12);
  const auto report =
      engine.process_round(make_round(4, 16, std::vector<bool>(4, false), rng));
  // All honest, all R = 1 (initial 1, positive event keeps it at 1):
  // Σ I_i = pool exactly.
  double total = 0.0;
  for (double r : report.rewards) total += r;
  EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST(FiflEngine, CatchUpBlockRebuildsReplicaBitIdentically) {
  // Rejoin-by-replay: a live engine processes rounds 0-4; a crashed
  // replica processes round 0, misses rounds 1-4, then catches up from
  // the live engine's committed blocks. Both must end bit-identical —
  // same reputations, same re-sealed block hashes, same next-round
  // server selection. Round 3 loses every upload, so its block is a
  // degraded one (detection rows only); round 4 loses one upload.
  const std::vector<bool> attacker{false, false, false, true};
  util::Rng rng(7);
  std::vector<std::vector<fl::Upload>> rounds;
  for (int r = 0; r < 5; ++r) rounds.push_back(make_round(4, 16, attacker, rng));
  for (auto& upload : rounds[3]) upload.arrived = false;
  rounds[4][0].arrived = false;

  FiflEngine live(default_config(), 4, 16);
  FiflEngine rejoiner(default_config(), 4, 16);
  (void)live.process_round(rounds[0]);
  (void)rejoiner.process_round(rounds[0]);
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    const RoundReport report = live.process_round(rounds[r]);
    EXPECT_EQ(report.degraded, r == 3) << "round " << r;
  }
  for (const auto& rec : live.ledger().block(3).records) {
    EXPECT_EQ(rec.kind, chain::RecordKind::kDetection);
    EXPECT_EQ(rec.value, -1.0);
  }

  ASSERT_EQ(rejoiner.round(), 1u);
  for (std::uint64_t b = 1; b < 5; ++b) {
    rejoiner.catch_up_block(live.ledger().block(b).records);
  }
  EXPECT_EQ(rejoiner.round(), 5u);
  ASSERT_EQ(rejoiner.ledger().block_count(), live.ledger().block_count());
  for (std::size_t b = 0; b < 5; ++b) {
    // Deterministic signatures make the replayed block byte-identical.
    EXPECT_EQ(rejoiner.ledger().block(b).block_hash,
              live.ledger().block(b).block_hash)
        << "block " << b;
  }
  for (chain::NodeId w = 0; w < 4; ++w) {
    EXPECT_EQ(rejoiner.reputation().reputation(w),
              live.reputation().reputation(w))
        << "worker " << w;
    EXPECT_EQ(rejoiner.cumulative().total(w), live.cumulative().total(w))
        << "worker " << w;
  }
  EXPECT_EQ(rejoiner.server_members(), live.server_members());
}

TEST(FiflEngine, CatchUpBlockValidatesItsInputs) {
  FiflEngine live(default_config(), 4, 16);
  FiflEngine rejoiner(default_config(), 4, 16);
  util::Rng rng(8);
  const auto uploads = make_round(4, 16, {false, false, false, false}, rng);
  (void)live.process_round(uploads);

  // Empty block.
  EXPECT_THROW(rejoiner.catch_up_block({}), std::invalid_argument);
  // Wrong round: the engine expects its own next round.
  (void)rejoiner.process_round(uploads);
  EXPECT_THROW(rejoiner.catch_up_block(live.ledger().block(0).records),
               std::runtime_error);
  // A non-recording engine cannot replay blocks.
  FiflConfig bare = default_config();
  bare.record_to_ledger = false;
  FiflEngine unrecorded(bare, 4, 16);
  EXPECT_THROW(unrecorded.catch_up_block(live.ledger().block(0).records),
               std::logic_error);
}

TEST(FiflEngine, CatchUpBlockDetectsForkedHistory) {
  // Replayed kReputation rows are cross-checked against the rebuilt
  // state: records from an engine whose history diverged (different
  // round-0 inputs) must throw instead of silently forking the replica.
  const std::vector<bool> attacker{false, false, true, true};
  util::Rng rng_a(9);
  util::Rng rng_b(10);
  FiflEngine live(default_config(), 4, 16);
  FiflEngine rejoiner(default_config(), 4, 16);
  (void)live.process_round(make_round(4, 16, attacker, rng_a));
  (void)live.process_round(make_round(4, 16, attacker, rng_a));
  // The rejoiner saw a different round 0 (honest everywhere), so the
  // replayed round-1 reputations cannot match.
  (void)rejoiner.process_round(
      make_round(4, 16, {false, false, false, false}, rng_b));
  EXPECT_THROW(rejoiner.catch_up_block(live.ledger().block(1).records),
               std::runtime_error);
}

}  // namespace
}  // namespace fifl::core
