// Heartbeat-driven liveness and quorum semantics on the lead, exercised
// with scripted workers over raw loopback endpoints: a worker that stops
// heartbeating is declared dead within the liveness window, its later
// uploads are rejected (but queue it for re-homing), degraded rounds
// proceed on the surviving quorum, and a roster below the quorum floor
// aborts the run.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/fifl.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "nn/checkpoint.hpp"
#include "nn/models.hpp"

namespace fifl::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr std::uint32_t kWorkers = 2;
constexpr NodeKey kLead = kWorkers;  // server 0's key

std::unique_ptr<nn::Sequential> tiny_model() {
  util::Rng rng(4);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Linear>(2, 2, rng);
  return model;
}

NodeTimeouts fast_timeouts() {
  NodeTimeouts t;
  t.join = milliseconds(5000);
  t.phase = milliseconds(4000);
  t.heartbeat = milliseconds(100);
  t.liveness = milliseconds(500);
  return t;
}

std::unique_ptr<ServerNode> make_lead(Transport& transport,
                                      std::size_t rounds,
                                      double quorum_fraction) {
  auto model = tiny_model();
  const std::size_t params = model->parameter_count();
  core::FiflConfig fifl_cfg;
  fifl_cfg.servers = 1;  // lead only: no follower slices in this test
  ServerNodeConfig sc;
  sc.server_index = 0;
  sc.rounds = rounds;
  sc.timeouts = fast_timeouts();
  sc.quorum.min_fraction = quorum_fraction;
  auto endpoint = transport.open(kLead);
  auto engine =
      std::make_unique<core::FiflEngine>(fifl_cfg, kWorkers, params);
  return std::make_unique<ServerNode>(
      sc, std::move(engine), std::move(model), std::move(endpoint),
      Topology{kWorkers, 1});
}

void join_as_worker(Endpoint& ep) {
  ep.send_msg(kLead, JoinMsg{ep.address(), NodeRole::kWorker});
  for (;;) {
    auto env = ep.recv(milliseconds(5000));
    ASSERT_TRUE(env.has_value()) << "worker " << ep.address()
                                 << ": no JoinAck";
    if (env->type == MessageType::kJoinAck) return;
  }
}

GradientUploadMsg upload_msg(std::uint64_t round, std::uint32_t worker,
                             std::size_t params) {
  GradientUploadMsg msg;
  msg.round = round;
  msg.worker = worker;
  msg.samples = 10;
  msg.gradient.assign(params, 0.01f);
  return msg;
}

void heartbeat(Endpoint& ep, std::uint64_t token) {
  ep.send_msg(kLead, HeartbeatMsg{ep.address(), (1ull << 62) + token, 0});
}

struct MetricsDelta {
  std::uint64_t dropped_workers, dead_uploads, worker_rejoins,
      rounds_degraded;

  static MetricsDelta take() {
    NetMetrics& m = NetMetrics::global();
    return {m.dropped_workers->value(), m.dead_uploads->value(),
            m.worker_rejoins->value(), m.rounds_degraded->value()};
  }
};

TEST(Liveness, SilentWorkerIsDroppedAndRejoinsOnNextUpload) {
  const MetricsDelta before = MetricsDelta::take();
  LoopbackTransport transport;
  auto lead = make_lead(transport, /*rounds=*/3, /*quorum_fraction=*/0.5);
  const std::size_t params = lead->global_model()->parameter_count();

  auto w0_ep = transport.open(0);
  auto w1_ep = transport.open(1);

  // Worker 0: well-behaved but slow in rounds 1 and 2, keeping the
  // collect window open long enough for the liveness scan (round 1) and
  // the dead worker's stray upload (round 2) to land first.
  std::thread w0([&] {
    join_as_worker(*w0_ep);
    std::uint64_t token = 0;
    std::optional<std::uint64_t> due_round;
    steady_clock::time_point due_at{};
    auto last_hb = steady_clock::now();
    auto last_rx = last_hb;
    for (;;) {
      if (steady_clock::now() - last_hb >= milliseconds(100)) {
        last_hb = steady_clock::now();
        heartbeat(*w0_ep, token++);
      }
      if (due_round && steady_clock::now() >= due_at) {
        w0_ep->send_msg(kLead, upload_msg(*due_round, 0, params));
        due_round.reset();
      }
      auto env = w0_ep->recv(milliseconds(25));
      if (!env) {
        // Safety valve so a failing lead can't hang the test.
        if (steady_clock::now() - last_rx > milliseconds(8000)) return;
        continue;
      }
      last_rx = steady_clock::now();
      if (env->type == MessageType::kLeave) return;
      if (env->type != MessageType::kModelBroadcast) continue;
      const auto msg = decode_payload<ModelBroadcastMsg>(env->payload);
      const milliseconds delay =
          msg.round == 1 ? milliseconds(900)
                         : (msg.round == 2 ? milliseconds(1400)
                                           : milliseconds(0));
      due_round = msg.round;
      due_at = steady_clock::now() + delay;
    }
  });

  // Worker 1: healthy through round 0, then drops off the network after
  // the round-1 broadcast; 800ms later it blindly uploads for round 2.
  std::thread w1([&] {
    join_as_worker(*w1_ep);
    std::uint64_t token = 0;
    auto last_hb = steady_clock::now();
    auto last_rx = last_hb;
    for (;;) {
      if (steady_clock::now() - last_hb >= milliseconds(100)) {
        last_hb = steady_clock::now();
        heartbeat(*w1_ep, token++);
      }
      auto env = w1_ep->recv(milliseconds(25));
      if (!env) {
        if (steady_clock::now() - last_rx > milliseconds(8000)) return;
        continue;
      }
      last_rx = steady_clock::now();
      if (env->type != MessageType::kModelBroadcast) continue;
      const auto msg = decode_payload<ModelBroadcastMsg>(env->payload);
      if (msg.round == 0) {
        w1_ep->send_msg(kLead, upload_msg(0, 1, params));
        continue;
      }
      // Round-1 broadcast: go dark, then speak again mid-round-2.
      std::this_thread::sleep_for(milliseconds(1900));
      w1_ep->send_msg(kLead, upload_msg(2, 1, params));
      return;
    }
  });

  lead->run();
  w0.join();
  w1.join();

  const auto& results = lead->results();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].counted, 2u);
  EXPECT_EQ(results[0].live_workers, 2u);
  EXPECT_EQ(results[0].arrived, (std::vector<std::uint8_t>{1, 1}));
  // Round 1: worker 1 silent beyond the liveness window -> declared dead,
  // the round proceeds degraded on the surviving worker.
  EXPECT_EQ(results[1].counted, 1u);
  EXPECT_EQ(results[1].live_workers, 1u);
  EXPECT_EQ(results[1].arrived, (std::vector<std::uint8_t>{1, 0}));
  // Round 2: the dead worker's stray upload is rejected (roster already
  // shrank), so the round still counts only worker 0.
  EXPECT_EQ(results[2].counted, 1u);
  EXPECT_EQ(results[2].arrived, (std::vector<std::uint8_t>{1, 0}));

  const MetricsDelta after = MetricsDelta::take();
  EXPECT_EQ(after.dropped_workers - before.dropped_workers, 1u);
  EXPECT_GE(after.dead_uploads - before.dead_uploads, 1u);
  EXPECT_EQ(after.worker_rejoins - before.worker_rejoins, 1u);
  EXPECT_GE(after.rounds_degraded - before.rounds_degraded, 2u);
}

TEST(Liveness, BelowQuorumAborts) {
  LoopbackTransport transport;
  auto lead = make_lead(transport, /*rounds=*/3, /*quorum_fraction=*/1.0);
  const std::size_t params = lead->global_model()->parameter_count();

  auto w0_ep = transport.open(0);
  auto w1_ep = transport.open(1);

  // Worker 0 always uploads; worker 1 uploads round 0 and then vanishes,
  // so round 1 closes with 1 of 2 < ceil(1.0 * 2) uploads.
  auto script = [&](Endpoint& ep, bool vanish_after_round0) {
    join_as_worker(ep);
    std::uint64_t token = 0;
    auto last_hb = steady_clock::now();
    auto last_rx = last_hb;
    for (;;) {
      if (steady_clock::now() - last_hb >= milliseconds(100)) {
        last_hb = steady_clock::now();
        heartbeat(ep, token++);
      }
      auto env = ep.recv(milliseconds(25));
      if (!env) {
        if (steady_clock::now() - last_rx > milliseconds(3000)) return;
        continue;
      }
      last_rx = steady_clock::now();
      if (env->type == MessageType::kLeave) return;
      if (env->type != MessageType::kModelBroadcast) continue;
      const auto msg = decode_payload<ModelBroadcastMsg>(env->payload);
      ep.send_msg(kLead, upload_msg(msg.round, ep.address(), params));
      if (vanish_after_round0 && msg.round == 0) return;
    }
  };
  std::thread w0([&] { script(*w0_ep, false); });
  std::thread w1([&] { script(*w1_ep, true); });

  EXPECT_THROW(
      {
        try {
          lead->run();
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("quorum"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  lead->request_stop();
  w0_ep->close();
  w1_ep->close();
  w0.join();
  w1.join();
}

}  // namespace
}  // namespace fifl::net
