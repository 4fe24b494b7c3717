// Recorded bytes of every Eq. 2 aggregation path outside the engine:
// Simulator::apply_round (FedAvg, a partial mask and an all-rejected mask),
// FedAvgAggregator and FiflDetectionAggregator. The hashes are SHA-256 of
// the float bytes of each returned G̃ and of θ after each step, recorded
// before these paths were folded into one aggregation routine; any drift
// means an operation order changed.
//
// The seeded upload set has an absent upload (its gradient holds values
// that would show if it were summed), an arrived upload with zero samples
// and a flipped upload that detection rejects. Outside the detection leg
// the zero-sample upload carries one +Inf: a zero weight still multiplies
// it, so G̃ holds a NaN there. The widths are multiples of neither 4096
// (the aggregation block) nor 8 (the AVX2 lane count).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/defenses.hpp"
#include "data/synthetic.hpp"
#include "fl/simulator.hpp"
#include "net/node.hpp"
#include "nn/models.hpp"

namespace fifl {
namespace {

constexpr std::size_t kUploads = 7;

// Flatten + Linear(64, hidden) + ReLU + Linear(hidden, 10):
// 75·hidden + 10 parameters.
fl::ModelFactory mlp(std::size_t hidden) {
  return [hidden](util::Rng& rng) {
    auto model = std::make_unique<nn::Sequential>();
    model->emplace<nn::Flatten>();
    model->emplace<nn::Linear>(64, hidden, rng);
    model->emplace<nn::ReLU>();
    model->emplace<nn::Linear>(hidden, 10, rng);
    return model;
  };
}

std::vector<fl::Upload> seeded_uploads(std::size_t width, std::uint64_t seed,
                                      bool plant_inf) {
  util::Rng rng(seed);
  std::vector<float> direction(width);
  for (auto& v : direction) v = static_cast<float>(rng.gaussian());
  const std::size_t samples[kUploads] = {30, 50, 40, 0, 20, 70, 10};
  std::vector<fl::Upload> uploads(kUploads);
  for (std::size_t i = 0; i < kUploads; ++i) {
    uploads[i].worker = static_cast<chain::NodeId>(i);
    uploads[i].samples = samples[i];
    uploads[i].gradient = fl::Gradient(width);
    for (std::size_t d = 0; d < width; ++d) {
      const float g =
          direction[d] + static_cast<float>(rng.gaussian(0.0, 0.4));
      uploads[i].gradient[d] = i == 5 ? -6.0f * g : g;
    }
  }
  uploads[2].arrived = false;  // lost on the channel
  for (std::size_t d = 0; d < width; ++d) uploads[2].gradient[d] = 1.0e6f;
  if (plant_inf) {
    uploads[3].gradient[width / 2] = std::numeric_limits<float>::infinity();
  }
  return uploads;
}

struct Width {
  std::size_t hidden;
  std::size_t params;
};

// 1,210 and 7,510 parameters: below and across the 4096-element block.
constexpr Width kWidths[] = {{16, 75 * 16 + 10}, {100, 75 * 100 + 10}};

std::string hash(const fl::Gradient& g) { return net::parameter_hash(g.flat()); }

std::string theta_hash(fl::Simulator& sim) {
  return net::parameter_hash(sim.global_model().flatten_parameters());
}

fl::Simulator make_sim(std::size_t hidden) {
  auto spec = data::mnist_like(kUploads * 20, 3);
  spec.image_size = 8;
  auto split = data::make_synthetic_split(spec, 40);
  std::vector<fl::BehaviourPtr> behaviours;
  for (std::size_t i = 0; i < kUploads; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  util::Rng rng(5);
  fl::SimulatorConfig cfg;
  cfg.global_learning_rate = 0.3;
  return fl::Simulator(cfg, mlp(hidden),
                       fl::make_worker_setups(split.train, std::move(behaviours), rng),
                       split.test);
}

TEST(AggregationPins, SimulatorApplyRoundMatchesRecordedBytes) {
  const std::vector<int> partial{1, 0, 1, 1, 0, 1, 1};
  const std::vector<int> none(kUploads, 0);
  std::vector<std::string> hashes;
  for (const Width& w : kWidths) {
    fl::Simulator sim = make_sim(w.hidden);
    ASSERT_EQ(sim.parameter_count(), w.params);
    const auto uploads = seeded_uploads(w.params, 11 + w.hidden, true);
    hashes.push_back(hash(sim.apply_round(uploads)));
    hashes.push_back(theta_hash(sim));
    hashes.push_back(hash(sim.apply_round(uploads, partial)));
    hashes.push_back(theta_hash(sim));
    hashes.push_back(hash(sim.apply_round(uploads, none)));
    hashes.push_back(theta_hash(sim));
  }
  const std::vector<std::string> kRecorded = {
      // hidden 16 (1,210 parameters): FedAvg G̃, θ; partial G̃, θ; none G̃, θ
      "4d7831cc8f1fcac5c5742e8a09786f4de998f477d790882c10772abf701f0492",
      "37efd0b8b24ead3854cebecd794655cafe888a069f9ca8c365b23f295f0fd2c3",
      "09115d8b352d8a07ea752c791e5f6592835c11d7a272b0ec12438d453b44142d",
      "59db3f81dd352e55dac7d831b21bab2c2e680174ce704db7fb022eec5d2c154e",
      "246a12aee4c9465050bc1ef66367b04366590f4c35564b3283b0d979f25621f9",
      "59db3f81dd352e55dac7d831b21bab2c2e680174ce704db7fb022eec5d2c154e",
      // hidden 100 (7,510 parameters), same order
      "139d17b1f43170803c34348d7ee2877f3162f32f3efe3636c9a3e82f20d0f51a",
      "c9b55b612107e521816435955a186a33f36be574667105c357ebfa3a25eb068c",
      "6fc1eddfb72de5c27526c527134325418b80a212d6da5846967b06c6c4c8f331",
      "e7a412a78be3b683c840e5fdf5a520ac95a9173a832b723bc68e833c9ade400c",
      "7a041a8c37b0d0be9e85f6c909a7f0ae1babfda9f4e67fdf81aacfb80b1a8779",
      "e7a412a78be3b683c840e5fdf5a520ac95a9173a832b723bc68e833c9ade400c",
  };
  ASSERT_EQ(hashes.size(), kRecorded.size());
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    EXPECT_EQ(hashes[i], kRecorded[i]) << "entry " << i;
  }
}

TEST(AggregationPins, DefenseAggregatorsMatchRecordedBytes) {
  core::DetectionConfig detection;
  detection.threshold = 0.0;
  const core::FiflDetectionAggregator fifl(detection, {0, 1});
  std::vector<std::string> hashes;
  for (const Width& w : kWidths) {
    const auto uploads = seeded_uploads(w.params, 23 + w.hidden, true);
    hashes.push_back(hash(core::FedAvgAggregator().aggregate(uploads)));
    // Detection rejects a non-finite upload; without the +Inf it accepts
    // the zero-sample upload, whose zero weight then enters the sum.
    hashes.push_back(
        hash(fifl.aggregate(seeded_uploads(w.params, 23 + w.hidden, false))));
  }
  const std::vector<std::string> kRecorded = {
      // 1,210 floats: FedAvg, FIFL detection
      "8017d69dc5aafb85e6e514b1f739570ccccf23b7ef35d97092e9f4b256100989",
      "b680830b6ebbf3382a4fbb76f7221e7dacbf5abc8459124159afb2f92cf09ec0",
      // 7,510 floats: FedAvg, FIFL detection
      "8368954bda15672689b98fafc739791efca1caa03c1c72b7105b0d5d9bf8ec56",
      "e2c99ba8b6f4510ce21cd60d5b1a7e2719de44fd343bde3ef74cb0a6e61f849f",
  };
  ASSERT_EQ(hashes.size(), kRecorded.size());
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    EXPECT_EQ(hashes[i], kRecorded[i]) << "entry " << i;
  }
}

}  // namespace
}  // namespace fifl
