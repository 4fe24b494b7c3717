// Upload intake accounting: every GradientUpload a server handles is one
// observation in net.handle_ms.gradient_upload, whichever phase the
// server was waiting in when the upload arrived.
//
// The run delays every worker->follower link by 40 ms, so the follower
// reads the lead's RoundSummary before the uploads it names and takes
// them in while grace-waiting inside the round. Each of the M servers
// handles each of the N workers' uploads once per round, so the count
// is exactly N * M * R however the messages interleave.
#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "fl/simulator.hpp"
#include "net/cluster.hpp"
#include "net/fault.hpp"
#include "nn/models.hpp"

namespace fifl::net {
namespace {

constexpr std::size_t kWorkers = 8;
constexpr std::size_t kServers = 2;
constexpr std::size_t kRounds = 4;
constexpr NodeKey kFollowerKey = kWorkers + 1;  // server 1

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

std::uint64_t uploads_handled() {
  return NetMetrics::global()
      .handle_for(static_cast<std::uint8_t>(MessageType::kGradientUpload))
      ->count();
}

TEST(UploadIntake, EveryUploadIsCountedUnderDelayedFollowerLinks) {
  FaultSchedule schedule;
  schedule.seed = 19;
  for (NodeKey worker = 0; worker < kWorkers; ++worker) {
    schedule.links.push_back(
        LinkFaults{.from = worker,
                   .to = kFollowerKey,
                   .delay_prob = 1.0,
                   .delay_min = std::chrono::milliseconds(40),
                   .delay_max = std::chrono::milliseconds(40)});
  }
  auto faulty = std::make_shared<FaultyTransport>(
      std::make_unique<LoopbackTransport>(), schedule);

  ClusterConfig cfg;
  cfg.sim.seed = 42;
  cfg.sim.batch_size = 64;
  cfg.fifl.servers = kServers;
  cfg.rounds = kRounds;
  cfg.timeouts.join = std::chrono::milliseconds(30000);
  cfg.timeouts.phase = std::chrono::milliseconds(2500);
  cfg.timeouts.heartbeat = std::chrono::milliseconds(150);
  cfg.timeouts.liveness = std::chrono::milliseconds(1000);
  cfg.transport_override = faulty;

  auto spec = data::mnist_like(kWorkers * 120, 21);
  spec.image_size = 8;
  const auto split = data::make_synthetic_split(spec, 200);
  util::Rng rng(3);
  std::vector<fl::BehaviourPtr> behaviours;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  auto setups = fl::make_worker_setups(split.train, std::move(behaviours), rng);

  NetMetrics& m = NetMetrics::global();
  const std::uint64_t handled_before = uploads_handled();
  const std::uint64_t late_before = m.late_uploads->value();
  Cluster cluster(cfg, mlp_factory(), std::move(setups), split.test);
  const auto& results = cluster.run();

  ASSERT_EQ(results.size(), kRounds);
  for (const NetRoundResult& row : results) {
    EXPECT_EQ(row.counted, kWorkers) << "round " << row.round;
  }
  EXPECT_GT(faulty->fault_count(), 0u);
  EXPECT_EQ(uploads_handled() - handled_before, kWorkers * kServers * kRounds);
  EXPECT_EQ(m.late_uploads->value() - late_before, 0u);
}

}  // namespace
}  // namespace fifl::net
