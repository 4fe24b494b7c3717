// FaultyTransport semantics: scripted drops/dups/delays/partitions/
// crashes, control-plane immunity, and — the property the chaos harness
// rests on — determinism of the injected-fault log under a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "net/fault.hpp"
#include "net/transport.hpp"

namespace fifl::net {
namespace {

GradientUploadMsg upload_for(std::uint64_t round, std::uint32_t worker) {
  GradientUploadMsg msg;
  msg.round = round;
  msg.worker = worker;
  msg.samples = 10;
  msg.gradient = {1.0f, 2.0f, 3.0f};
  return msg;
}

FaultyTransport make_faulty(FaultSchedule schedule) {
  return FaultyTransport(std::make_unique<LoopbackTransport>(),
                         std::move(schedule));
}

TEST(FaultTransport, EmptyScheduleIsPassThrough) {
  FaultSchedule schedule;
  schedule.links.push_back(LinkFaults{});  // all probabilities zero
  EXPECT_TRUE(schedule.empty());

  auto transport = make_faulty(schedule);
  auto a = transport.open(1);
  auto b = transport.open(2);
  a->send_msg(2, upload_for(0, 1));
  auto env = b->recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->type, MessageType::kGradientUpload);
  EXPECT_EQ(transport.fault_count(), 0u);
}

TEST(FaultTransport, DropBlocksDataButNotControl) {
  FaultSchedule schedule;
  schedule.seed = 7;
  schedule.links.push_back(LinkFaults{.from = 1, .to = 2, .drop_prob = 1.0});

  auto transport = make_faulty(schedule);
  auto a = transport.open(1);
  auto b = transport.open(2);

  a->send_msg(2, upload_for(0, 1));
  EXPECT_FALSE(b->recv(std::chrono::milliseconds(100)).has_value());

  // The control plane is never faulted.
  a->send_msg(2, HeartbeatMsg{1, 5, 0});
  auto env = b->recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->type, MessageType::kHeartbeat);

  const auto log = transport.fault_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, FaultKind::kDrop);
  EXPECT_EQ(log[0].from, 1u);
  EXPECT_EQ(log[0].to, 2u);
  EXPECT_EQ(log[0].type, MessageType::kGradientUpload);
}

TEST(FaultTransport, DuplicateDeliversTwice) {
  FaultSchedule schedule;
  schedule.seed = 11;
  schedule.links.push_back(LinkFaults{.from = 1, .to = 2, .dup_prob = 1.0});

  auto transport = make_faulty(schedule);
  auto a = transport.open(1);
  auto b = transport.open(2);
  a->send_msg(2, upload_for(3, 1));

  int delivered = 0;
  while (b->recv(std::chrono::milliseconds(200)).has_value()) ++delivered;
  EXPECT_EQ(delivered, 2);

  const auto log = transport.fault_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, FaultKind::kDuplicate);
}

TEST(FaultTransport, DelayHoldsMessageButDelivers) {
  FaultSchedule schedule;
  schedule.seed = 13;
  schedule.links.push_back(LinkFaults{.from = 1,
                                      .to = 2,
                                      .delay_prob = 1.0,
                                      .delay_min = std::chrono::milliseconds(30),
                                      .delay_max =
                                          std::chrono::milliseconds(60)});

  auto transport = make_faulty(schedule);
  auto a = transport.open(1);
  auto b = transport.open(2);

  const auto start = std::chrono::steady_clock::now();
  a->send_msg(2, upload_for(0, 1));
  auto env = b->recv(std::chrono::milliseconds(5000));
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(env.has_value());
  EXPECT_GE(waited, std::chrono::milliseconds(25));

  const auto log = transport.fault_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, FaultKind::kDelay);
  EXPECT_GE(log[0].delay_ms, 30u);
  EXPECT_LE(log[0].delay_ms, 60u);
}

TEST(FaultTransport, PartitionWindowsOnPayloadRound) {
  FaultSchedule schedule;
  schedule.seed = 17;
  schedule.partitions.push_back(
      LinkPartition{.from = 1, .to = 2, .first_round = 1, .last_round = 2});

  auto transport = make_faulty(schedule);
  auto a = transport.open(1);
  auto b = transport.open(2);

  std::vector<std::uint64_t> delivered;
  for (std::uint64_t r = 0; r < 4; ++r) {
    a->send_msg(2, upload_for(r, 1));
  }
  while (auto env = b->recv(std::chrono::milliseconds(200))) {
    delivered.push_back(
        decode_payload<GradientUploadMsg>(env->payload).round);
  }
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 3}));

  const auto log = transport.fault_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, FaultKind::kPartition);
  EXPECT_EQ(log[1].kind, FaultKind::kPartition);
}

TEST(FaultTransport, CrashSilencesNodeAfterKthUpload) {
  FaultSchedule schedule;
  schedule.seed = 19;
  schedule.crashes.push_back(NodeCrash{.node = 1, .after_uploads = 2});

  auto transport = make_faulty(schedule);
  auto a = transport.open(1);
  auto b = transport.open(2);

  // Uploads 1 and 2 go out (the node dies right after the 2nd write);
  // everything afterwards — data or control — vanishes.
  a->send_msg(2, upload_for(0, 1));
  a->send_msg(2, upload_for(1, 1));
  EXPECT_TRUE(transport.crashed(1));
  a->send_msg(2, upload_for(2, 1));
  a->send_msg(2, HeartbeatMsg{1, 9, 0});

  int delivered = 0;
  while (b->recv(std::chrono::milliseconds(200)).has_value()) ++delivered;
  EXPECT_EQ(delivered, 2);

  // A crashed node's receiver goes silent too.
  b->send_msg(1, HeartbeatMsg{2, 1, 0});
  EXPECT_FALSE(a->recv(std::chrono::milliseconds(50)).has_value());

  const auto log = transport.fault_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, FaultKind::kCrash);
  EXPECT_EQ(log[0].from, 1u);
  EXPECT_EQ(log[0].seq, 2u);
}

TEST(FaultTransport, CrashRecoverRevivesOnFirstMessageAtRecoverRound) {
  FaultSchedule schedule;
  schedule.seed = 23;
  schedule.crashes.push_back(
      NodeCrash{.node = 1, .after_uploads = 1, .recover_round = 3});

  auto transport = make_faulty(schedule);
  auto a = transport.open(1);
  auto b = transport.open(2);

  a->send_msg(2, upload_for(0, 1));
  ASSERT_TRUE(b->recv(std::chrono::milliseconds(2000)).has_value());
  EXPECT_TRUE(transport.crashed(1));
  EXPECT_EQ(transport.recover_round(1), 3u);

  // Down: outbound vanishes, and inbound data below the recovery round is
  // discarded — a dead process reads nothing.
  a->send_msg(2, upload_for(1, 1));
  EXPECT_FALSE(b->recv(std::chrono::milliseconds(100)).has_value());
  b->send_msg(1, upload_for(1, 2));
  b->send_msg(1, upload_for(2, 2));
  EXPECT_FALSE(a->recv(std::chrono::milliseconds(100)).has_value());
  EXPECT_TRUE(transport.crashed(1));

  // The first data-plane message whose payload round reaches
  // recover_round revives the node AND is delivered to it.
  b->send_msg(1, upload_for(3, 2));
  auto env = a->recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(decode_payload<GradientUploadMsg>(env->payload).round, 3u);
  EXPECT_FALSE(transport.crashed(1));

  // Back to life in both directions.
  a->send_msg(2, upload_for(3, 1));
  ASSERT_TRUE(b->recv(std::chrono::milliseconds(2000)).has_value());

  // The log holds the crash and the recovery, nothing for the discarded
  // messages (a down host drops traffic without a per-message event).
  const auto log = transport.fault_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, FaultKind::kCrash);
  EXPECT_EQ(log[0].from, 1u);
  EXPECT_EQ(log[1].kind, FaultKind::kCrashRecover);
}

// The determinism contract: the same seed + schedule + per-link message
// sequence produces the identical fault log and the identical multiset of
// delivered rounds, run after run.
TEST(FaultTransport, SameSeedSameScheduleSameFaultLog) {
  FaultSchedule schedule;
  schedule.seed = 0xC0FFEE;
  schedule.links.push_back(LinkFaults{.from = 1,
                                      .to = 2,
                                      .drop_prob = 0.3,
                                      .dup_prob = 0.2,
                                      .delay_prob = 0.3,
                                      .delay_min = std::chrono::milliseconds(1),
                                      .delay_max =
                                          std::chrono::milliseconds(5)});
  schedule.links.push_back(LinkFaults{.from = 3, .to = 2, .drop_prob = 0.5});

  auto run_once = [&schedule] {
    auto transport = make_faulty(schedule);
    auto a = transport.open(1);
    auto c = transport.open(3);
    auto b = transport.open(2);
    for (std::uint64_t r = 0; r < 40; ++r) {
      a->send_msg(2, upload_for(r, 1));
      c->send_msg(2, upload_for(r, 3));
    }
    std::map<std::uint64_t, int> delivered;
    while (auto env = b->recv(std::chrono::milliseconds(150))) {
      ++delivered[decode_payload<GradientUploadMsg>(env->payload).round];
    }
    return std::make_pair(transport.fault_log(), delivered);
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_FALSE(first.first.empty());
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);

  // Different seed, different decisions (overwhelmingly likely on 80
  // Bernoulli draws).
  FaultSchedule other = schedule;
  other.seed = 0xBEEF;
  auto transport = make_faulty(other);
  auto a = transport.open(1);
  auto c = transport.open(3);
  auto b = transport.open(2);
  for (std::uint64_t r = 0; r < 40; ++r) {
    a->send_msg(2, upload_for(r, 1));
    c->send_msg(2, upload_for(r, 3));
  }
  while (b->recv(std::chrono::milliseconds(150)).has_value()) {
  }
  EXPECT_NE(transport.fault_log(), first.first);
}

}  // namespace
}  // namespace fifl::net
