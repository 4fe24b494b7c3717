#include "fl/simulator.hpp"

#include <gtest/gtest.h>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace fifl::fl {
namespace {

ModelFactory small_factory() {
  return [](util::Rng& rng) {
    auto model = std::make_unique<nn::Sequential>();
    model->emplace<nn::Flatten>();
    model->emplace<nn::Linear>(64, 16, rng);
    model->emplace<nn::ReLU>();
    model->emplace<nn::Linear>(16, 10, rng);
    return model;
  };
}

data::SyntheticSpec small_spec(std::size_t samples, std::uint64_t seed = 3) {
  auto spec = data::mnist_like(samples, seed);
  spec.image_size = 8;
  return spec;
}

Simulator make_sim(std::vector<BehaviourPtr> behaviours,
                   SimulatorConfig cfg = {}) {
  auto split = data::make_synthetic_split(small_spec(behaviours.size() * 40), 100);
  util::Rng rng(5);
  return Simulator(cfg, small_factory(),
                   make_worker_setups(split.train, std::move(behaviours), rng),
                   split.test);
}

std::vector<BehaviourPtr> honest(std::size_t n) {
  std::vector<BehaviourPtr> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<HonestBehaviour>());
  }
  return out;
}

TEST(Simulator, UploadsAreOrderedAndComplete) {
  Simulator sim = make_sim(honest(4));
  const auto uploads = sim.collect_uploads();
  ASSERT_EQ(uploads.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(uploads[i].worker, i);
    EXPECT_EQ(uploads[i].samples, 40u);
    EXPECT_EQ(uploads[i].gradient.size(), sim.parameter_count());
    EXPECT_TRUE(uploads[i].arrived);
  }
  EXPECT_EQ(sim.round(), 1u);
}

TEST(Simulator, FedAvgTrainingImprovesAccuracy) {
  Simulator sim = make_sim(honest(4));
  const double before = sim.evaluate().accuracy;
  for (int r = 0; r < 25; ++r) {
    const auto uploads = sim.collect_uploads();
    sim.apply_round(uploads);
  }
  const double after = sim.evaluate().accuracy;
  EXPECT_GT(after, before + 0.3);
  EXPECT_GT(after, 0.6);
}

TEST(Simulator, AcceptMaskExcludesWorkers) {
  Simulator sim = make_sim(honest(3));
  const auto uploads = sim.collect_uploads();
  const std::vector<int> only_first{1, 0, 0};
  Gradient agg = aggregate(uploads, only_first, sim.parameter_count());
  for (std::size_t i = 0; i < agg.size(); i += 101) {
    EXPECT_FLOAT_EQ(agg[i], uploads[0].gradient[i]);
  }
}

TEST(Simulator, AggregateWeightsBySampleCount) {
  // Unequal shards: worker with more samples dominates the average.
  auto split = data::make_synthetic_split(small_spec(120), 50);
  util::Rng rng(6);
  auto shards = data::partition_iid(split.train, {90, 30}, rng);
  std::vector<WorkerSetup> setups;
  setups.push_back(
      WorkerSetup{std::move(shards[0]), std::make_unique<HonestBehaviour>()});
  setups.push_back(
      WorkerSetup{std::move(shards[1]), std::make_unique<HonestBehaviour>()});
  Simulator sim({}, small_factory(), std::move(setups), split.test);
  const auto uploads = sim.collect_uploads();
  const std::vector<int> all{1, 1};
  Gradient agg = aggregate(uploads, all, sim.parameter_count());
  for (std::size_t i = 0; i < agg.size(); i += 211) {
    const float expect =
        0.75f * uploads[0].gradient[i] + 0.25f * uploads[1].gradient[i];
    EXPECT_NEAR(agg[i], expect, 1e-4f);
  }
}

TEST(Simulator, EmptyAcceptMaskIsNoop) {
  Simulator sim = make_sim(honest(2));
  const std::vector<float> before =
      sim.global_model().flatten_parameters();
  const auto uploads = sim.collect_uploads();
  const std::vector<int> none{0, 0};
  Gradient agg = sim.apply_round(uploads, none);
  EXPECT_DOUBLE_EQ(agg.squared_norm(), 0.0);
  EXPECT_EQ(sim.global_model().flatten_parameters(), before);
}

TEST(Simulator, MaskSizeMismatchThrows) {
  Simulator sim = make_sim(honest(2));
  const auto uploads = sim.collect_uploads();
  const std::vector<int> bad{1};
  EXPECT_THROW((void)sim.apply_round(uploads, bad), std::invalid_argument);
}

TEST(Simulator, ChannelLossMarksUploads) {
  SimulatorConfig cfg;
  cfg.channel_drop_prob = 0.5;
  Simulator sim = make_sim(honest(8), cfg);
  std::size_t lost = 0;
  for (int r = 0; r < 20; ++r) {
    for (const auto& up : sim.collect_uploads()) lost += !up.arrived;
  }
  EXPECT_GT(lost, 40u);   // ~80 expected of 160
  EXPECT_LT(lost, 120u);
}

TEST(Simulator, DroppedUploadsAreExcludedFromAggregation) {
  Simulator sim = make_sim(honest(2));
  auto uploads = sim.collect_uploads();
  uploads[1].arrived = false;
  const std::vector<int> all{1, 1};
  Gradient agg = aggregate(uploads, all, sim.parameter_count());
  for (std::size_t i = 0; i < agg.size(); i += 101) {
    EXPECT_FLOAT_EQ(agg[i], uploads[0].gradient[i]);
  }
}

TEST(Simulator, SignFlipAttackSlowsOrBreaksTraining) {
  // 2 of 4 workers flipping with high intensity: FedAvg accuracy after 20
  // rounds is far below the clean run.
  std::vector<BehaviourPtr> attacked;
  attacked.push_back(std::make_unique<HonestBehaviour>());
  attacked.push_back(std::make_unique<HonestBehaviour>());
  attacked.push_back(std::make_unique<SignFlipBehaviour>(4.0));
  attacked.push_back(std::make_unique<SignFlipBehaviour>(4.0));
  Simulator bad = make_sim(std::move(attacked));
  Simulator good = make_sim(honest(4));
  for (int r = 0; r < 20; ++r) {
    bad.apply_round(bad.collect_uploads());
    good.apply_round(good.collect_uploads());
  }
  EXPECT_GT(good.evaluate().accuracy, bad.evaluate().accuracy + 0.2);
}

TEST(Simulator, ModelCrashDetection) {
  Simulator sim = make_sim(honest(2));
  EXPECT_FALSE(sim.model_crashed());
  // Poison the global model directly.
  auto params = sim.global_model().flatten_parameters();
  params[0] = std::numeric_limits<float>::quiet_NaN();
  sim.global_model().load_parameters(params);
  EXPECT_TRUE(sim.model_crashed());
  const auto eval = sim.evaluate();
  EXPECT_TRUE(std::isnan(eval.loss));
  EXPECT_NEAR(eval.accuracy, 0.1, 1e-9);  // chance level for 10 classes
}

TEST(Simulator, NoWorkersThrows) {
  auto split = data::make_synthetic_split(small_spec(40), 10);
  EXPECT_THROW(Simulator({}, small_factory(), {}, split.test),
               std::invalid_argument);
}

TEST(Simulator, PartialParticipationMarksAbsent) {
  Simulator sim = make_sim(honest(4));
  const std::vector<int> mask{1, 0, 1, 0};
  const auto uploads = sim.collect_uploads(mask);
  EXPECT_TRUE(uploads[0].arrived);
  EXPECT_FALSE(uploads[1].arrived);
  EXPECT_TRUE(uploads[2].arrived);
  EXPECT_FALSE(uploads[3].arrived);
  // Absent uploads still carry identity metadata.
  EXPECT_EQ(uploads[1].worker, 1u);
  EXPECT_EQ(uploads[1].samples, 40u);
  EXPECT_TRUE(uploads[1].gradient.empty());
}

TEST(Simulator, PartialParticipationMaskSizeChecked) {
  Simulator sim = make_sim(honest(3));
  const std::vector<int> bad{1, 1};
  EXPECT_THROW((void)sim.collect_uploads(bad), std::invalid_argument);
}

TEST(Simulator, PartialParticipationStillTrains) {
  Simulator sim = make_sim(honest(4));
  util::Rng rng(9);
  for (int r = 0; r < 30; ++r) {
    const auto mask = sim.sample_participants(0.5, rng);
    sim.apply_round(sim.collect_uploads(mask));
  }
  EXPECT_GT(sim.evaluate().accuracy, 0.5);
}

TEST(Simulator, SampleParticipantsCountAndBounds) {
  Simulator sim = make_sim(honest(8));
  util::Rng rng(10);
  const auto mask = sim.sample_participants(0.5, rng);
  int count = 0;
  for (int m : mask) count += m;
  EXPECT_EQ(count, 4);
  EXPECT_THROW((void)sim.sample_participants(0.0, rng), std::invalid_argument);
  EXPECT_THROW((void)sim.sample_participants(1.5, rng), std::invalid_argument);
  // Tiny fraction still samples at least one.
  const auto tiny = sim.sample_participants(1e-9, rng);
  int tiny_count = 0;
  for (int m : tiny) tiny_count += m;
  EXPECT_EQ(tiny_count, 1);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim = make_sim(honest(3));
    for (int r = 0; r < 3; ++r) sim.apply_round(sim.collect_uploads());
    return sim.evaluate().loss;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace fifl::fl
