// Golden bytes of the LeNet training path. Three rounds of the quickstart
// shape (LeNet on MNIST-S, N=10 with a sign-flipper and a data-poisoner,
// M=2, batch 32, K=1) must reproduce, bit for bit, the global θ, every
// worker upload, every detection decision and the sealed ledger tip that
// were recorded before the conv / matmul_tn training path was rewritten
// for speed. The rewrite keeps every output element's floating-point
// operation sequence (DESIGN.md "Training path"), so any drift here means
// an order changed, not a tolerance to loosen.
//
// ctest runs this binary twice: as-is (AVX2 where the CPU has it) and as
// training_golden_scalar_env under FIFL_KERNEL_ISA=scalar, so the same
// constants pin both kernel backends.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/sha256.hpp"
#include "core/fifl.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "fl/simulator.hpp"
#include "net/node.hpp"
#include "nn/models.hpp"

namespace fifl {
namespace {

constexpr std::size_t kWorkers = 10;
constexpr std::size_t kRounds = 3;

struct GoldenRun {
  std::vector<std::string> upload_hashes;  // round-major, worker order
  std::vector<std::vector<int>> accepted;  // per round
  std::string theta_hash;
  std::string ledger_tip;
};

GoldenRun run_quickstart_rounds() {
  auto split = data::make_synthetic_split(data::mnist_like(kWorkers * 600),
                                          /*test_samples=*/200);
  std::vector<fl::BehaviourPtr> behaviours;
  for (std::size_t i = 0; i + 2 < kWorkers; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(6.0));
  behaviours.push_back(std::make_unique<fl::DataPoisonBehaviour>(0.6));
  fl::SimulatorConfig sim_cfg;
  sim_cfg.batch_size = 32;
  sim_cfg.learning_rate = 0.05;
  sim_cfg.global_learning_rate = 0.05;
  sim_cfg.seed = 7;
  fl::ModelFactory factory = [](util::Rng& rng) {
    return nn::make_lenet({.channels = 1, .image_size = 28, .classes = 10}, rng);
  };
  util::Rng rng(123);
  fl::Simulator sim(sim_cfg, factory,
                    fl::make_worker_setups(split.train, std::move(behaviours), rng),
                    split.test);
  core::FiflConfig fifl_cfg;
  fifl_cfg.servers = 2;
  fifl_cfg.detection.threshold = 0.0;
  core::FiflEngine engine(fifl_cfg, sim.worker_count(), sim.parameter_count());
  core::TrainerConfig trainer_cfg;
  trainer_cfg.eval_every = 0;
  core::FederatedTrainer trainer(&sim, &engine, trainer_cfg);
  trainer.set_trace_recorder(nullptr);

  GoldenRun run;
  trainer.set_report_observer(
      [&run](const core::RoundReport& report, std::span<const fl::Upload> uploads) {
        for (const fl::Upload& upload : uploads) {
          // 64 bits of the SHA-256 are plenty to catch a flipped bit.
          run.upload_hashes.push_back(
              net::parameter_hash(upload.gradient.flat()).substr(0, 16));
        }
        run.accepted.push_back(report.detection.accepted);
      });
  trainer.run(kRounds);
  run.theta_hash = net::parameter_hash(sim.global_model().flatten_parameters());
  const chain::Ledger& ledger = engine.ledger();
  run.ledger_tip = chain::to_hex(ledger.block(ledger.block_count() - 1).block_hash);
  return run;
}

TEST(TrainingGolden, QuickstartRoundsMatchRecordedBytes) {
  const GoldenRun run = run_quickstart_rounds();
  const std::vector<std::string> kUploads = {
      // round 0
      "6d179134adb0fa86", "3620eec826f434b8",
      "f11219f2194a3c29", "57c06bee94eb479a",
      "dd4de76f895b5a02", "3e07370df74b6d26",
      "6c9456476c053036", "a3984afef1e8eacb",
      "a8cf7a1b750c5027", "df5881a2775a75db",
      // round 1
      "06559bb2c3ccf25d", "31ea8e397ab58a6b",
      "3f83e36bff7d3f72", "0179fe3b77d34913",
      "2c4d6d21ec7b74d7", "5e6e565729135a8b",
      "50d1bbf715a9980b", "2920ae2e399623a0",
      "cf45b15ba267609e", "9c48e1746857376b",
      // round 2
      "abc344da14991997", "80cefe26ef696917",
      "034ab9812fafba97", "e1e210796f043028",
      "a763133dd77b7b33", "5aa6a8180ece6a51",
      "d985a3816c3e39eb", "ac07c6710eadec42",
      "214725bea6bcaa77", "11d1c2d2ff935d67",
  };
  ASSERT_EQ(run.upload_hashes.size(), kRounds * kWorkers);
  for (std::size_t i = 0; i < run.upload_hashes.size(); ++i) {
    EXPECT_EQ(run.upload_hashes[i], kUploads[i])
        << "round " << i / kWorkers << " worker " << i % kWorkers;
  }
  const std::vector<int> kAccepted = {1, 1, 1, 1, 1, 1, 1, 1, 0, 1};
  ASSERT_EQ(run.accepted.size(), kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    EXPECT_EQ(run.accepted[r], kAccepted) << "round " << r;
  }
  EXPECT_EQ(run.theta_hash,
            "3d05199fe11a56900ce5643d08f628883e8a144c532db3271cc729a02ddf0bab");
  EXPECT_EQ(run.ledger_tip,
            "b47f8b7c4e5122aca22420f2da1ec8e64661648187c263f3f7420c2e8586c677");
}

}  // namespace
}  // namespace fifl
