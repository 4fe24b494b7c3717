#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace fifl::core {
namespace {

fl::ModelFactory mlp_factory() {
  return [](util::Rng& rng) {
    auto model = std::make_unique<nn::Sequential>();
    model->emplace<nn::Flatten>();
    model->emplace<nn::Linear>(64, 16, rng);
    model->emplace<nn::ReLU>();
    model->emplace<nn::Linear>(16, 10, rng);
    return model;
  };
}

struct Harness {
  std::unique_ptr<fl::Simulator> sim;
  std::unique_ptr<FiflEngine> engine;
};

Harness make_setup(std::size_t attackers = 0, double attack = 8.0,
                   fl::SimulatorConfig sim_cfg = {}) {
  auto spec = data::mnist_like(6 * 80, 9);
  spec.image_size = 8;
  auto split = data::make_synthetic_split(spec, 150);
  std::vector<fl::BehaviourPtr> behaviours;
  for (std::size_t i = 0; i + attackers < 6; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  for (std::size_t i = 0; i < attackers; ++i) {
    behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(attack));
  }
  util::Rng rng(4);
  Harness setup;
  setup.sim = std::make_unique<fl::Simulator>(
      sim_cfg, mlp_factory(),
      fl::make_worker_setups(split.train, std::move(behaviours), rng),
      split.test);
  FiflConfig engine_cfg;
  engine_cfg.servers = 2;
  setup.engine = std::make_unique<FiflEngine>(
      engine_cfg, setup.sim->worker_count(), setup.sim->parameter_count());
  return setup;
}

TEST(Trainer, NullSimulatorThrows) {
  EXPECT_THROW(FederatedTrainer(nullptr, nullptr), std::invalid_argument);
}

TEST(Trainer, WorkerCountMismatchThrows) {
  Harness setup = make_setup();
  FiflConfig wrong_cfg;
  wrong_cfg.servers = 2;
  FiflEngine wrong(wrong_cfg, 3, setup.sim->parameter_count());
  EXPECT_THROW(FederatedTrainer(setup.sim.get(), &wrong),
               std::invalid_argument);
}

TEST(Trainer, RunsRequestedRoundsAndRecordsHistory) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(),
                           {.eval_every = 2});
  EXPECT_EQ(trainer.run(6), 6u);
  EXPECT_EQ(trainer.history().size(), 6u);
  // Rounds 2, 4, 6 evaluated.
  std::size_t evaluated = 0;
  for (const auto& record : trainer.history()) evaluated += record.evaluated;
  EXPECT_EQ(evaluated, 3u);
}

TEST(Trainer, FinalRoundAlwaysEvaluated) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(),
                           {.eval_every = 100});
  trainer.run(3);
  EXPECT_TRUE(trainer.history().back().evaluated);
}

TEST(Trainer, GlobalStepAppliesTheEngineGradient) {
  // Eq. 3 on the engine's own G̃: after every FIFL round, θ equals
  // θ_before − η·report.global_gradient bit for bit, computed with the
  // step's float expression.
  fl::SimulatorConfig sim_cfg;
  sim_cfg.global_learning_rate = 0.3;
  Harness setup = make_setup(/*attackers=*/1, 8.0, sim_cfg);
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(),
                           {.eval_every = 0});
  trainer.set_trace_recorder(nullptr);
  fl::Gradient global;
  trainer.set_report_observer(
      [&global](const RoundReport& report, std::span<const fl::Upload>) {
        global = report.global_gradient;
      });
  const auto lr = static_cast<float>(sim_cfg.global_learning_rate);
  for (int r = 0; r < 4; ++r) {
    const std::vector<float> before =
        setup.sim->global_model().flatten_parameters();
    ASSERT_EQ(trainer.run(1), 1u);
    const std::vector<float> after =
        setup.sim->global_model().flatten_parameters();
    ASSERT_EQ(global.size(), before.size());
    ASSERT_EQ(after.size(), before.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      const float expected = before[i] - lr * global[i];
      mismatches += std::bit_cast<std::uint32_t>(after[i]) !=
                    std::bit_cast<std::uint32_t>(expected);
    }
    EXPECT_EQ(mismatches, 0u) << "round " << r;
  }
}

TEST(Trainer, FedAvgModeAcceptsEveryone) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), /*engine=*/nullptr, {});
  trainer.run(2);
  for (const auto& record : trainer.history()) {
    EXPECT_EQ(record.accepted, 6u);
    EXPECT_EQ(record.rejected, 0u);
  }
}

TEST(Trainer, FiflModeRejectsAttackers) {
  Harness setup = make_setup(/*attackers=*/2);
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(), {});
  trainer.run(4);
  for (const auto& record : trainer.history()) {
    EXPECT_EQ(record.rejected, 2u) << "round " << record.round;
    EXPECT_EQ(record.accepted, 4u);
  }
}

TEST(Trainer, ImprovesAccuracy) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(),
                           {.eval_every = 5});
  trainer.run(20);
  EXPECT_GT(trainer.final_evaluation().accuracy, 0.6);
}

TEST(Trainer, TargetAccuracyStopsEarly) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(),
                           {.eval_every = 1, .target_accuracy = 0.3});
  const std::size_t executed = trainer.run(100);
  EXPECT_LT(executed, 100u);
  EXPECT_GE(trainer.history().back().accuracy, 0.3);
}

TEST(Trainer, CrashStopsFedAvgUnderStrongAttack) {
  // High learning rate + majority flip: parameters blow up to NaN fast.
  fl::SimulatorConfig sim_cfg;
  sim_cfg.learning_rate = 1.0;
  sim_cfg.global_learning_rate = 1.0;
  Harness setup = make_setup(/*attackers=*/4, /*attack=*/12.0, sim_cfg);
  FederatedTrainer trainer(setup.sim.get(), /*engine=*/nullptr,
                           {.eval_every = 1});
  const std::size_t executed = trainer.run(60);
  EXPECT_TRUE(trainer.crashed());
  EXPECT_LT(executed, 60u);
}

TEST(Trainer, ObserverSeesEveryRound) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(), {});
  std::size_t calls = 0;
  trainer.run(4, [&](const RoundRecord& record) {
    EXPECT_EQ(record.round, calls);
    ++calls;
  });
  EXPECT_EQ(calls, 4u);
}

TEST(Trainer, HistoryTableHasEvaluatedRowsOnly) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(),
                           {.eval_every = 2});
  trainer.run(4);
  EXPECT_EQ(trainer.history_table().rows(), 2u);
}

TEST(Trainer, ParticipationValidated) {
  Harness setup = make_setup();
  EXPECT_THROW(FederatedTrainer(setup.sim.get(), setup.engine.get(),
                                {.participation = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(FederatedTrainer(setup.sim.get(), setup.engine.get(),
                                {.participation = 1.5}),
               std::invalid_argument);
}

TEST(Trainer, PartialParticipationProducesUncertainEvents) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(),
                           {.participation = 0.5});
  trainer.run(4);
  for (const auto& record : trainer.history()) {
    EXPECT_EQ(record.uncertain, 3u);  // 3 of 6 absent per round
    EXPECT_EQ(record.accepted + record.rejected, 3u);
  }
}

TEST(Trainer, PartialParticipationStillLearns) {
  Harness setup = make_setup();
  FederatedTrainer trainer(setup.sim.get(), setup.engine.get(),
                           {.eval_every = 10, .participation = 0.5});
  trainer.run(30);
  EXPECT_GT(trainer.final_evaluation().accuracy, 0.5);
}

}  // namespace
}  // namespace fifl::core
