// Distributed tracing and the flight recorder, end to end: the span and
// ring primitives must survive concurrent writers (this file runs under
// the TSan lane via `ctest -L net`), a traced cluster run must be
// bit-for-bit identical to an untraced one while emitting a complete
// per-node span/clock stream with cross-node parent links, and the two
// forced-failure paths (Byzantine divergence, below-quorum abort) must
// leave a postmortem carrying the last events of every involved node.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fifl.hpp"
#include "data/synthetic.hpp"
#include "fl/simulator.hpp"
#include "net/cluster.hpp"
#include "net/fault.hpp"
#include "net/tracing.hpp"
#include "nn/models.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace fifl::net {
namespace {

namespace fs = std::filesystem;

// --- concurrency: SpanBuffer -----------------------------------------------

TEST(Tracing, SpanBufferConcurrentWriters) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 200;
  obs::SpanBuffer buffer;

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&buffer, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        obs::SpanRecord rec;
        rec.trace_id = t + 1;
        rec.span_id = (t << 32) | i;
        rec.node = static_cast<std::uint32_t>(t);
        rec.kind = obs::SpanKind::kSend;
        rec.name = "gradient_upload";
        rec.round = i;
        buffer.record(rec);
      }
    });
  }
  for (auto& w : writers) w.join();

  ASSERT_EQ(buffer.size(), kThreads * kPerThread);
  const auto records = buffer.drain();
  EXPECT_EQ(buffer.size(), 0u);

  // Every record lands intact, and each thread's records keep their
  // program order (appends happen under the buffer lock).
  std::map<std::uint64_t, std::vector<std::uint64_t>> rounds_by_thread;
  for (const auto& rec : records) {
    EXPECT_EQ(rec.span_id, (rec.trace_id - 1) << 32 | rec.round);
    rounds_by_thread[rec.trace_id].push_back(rec.round);
  }
  ASSERT_EQ(rounds_by_thread.size(), kThreads);
  for (const auto& [thread_id, rounds] : rounds_by_thread) {
    ASSERT_EQ(rounds.size(), kPerThread) << "thread " << thread_id;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      EXPECT_EQ(rounds[i], i) << "thread " << thread_id;
    }
  }
}

TEST(Tracing, SpanBufferFileStreamingUnderConcurrencyRoundTrips) {
  const std::string dir = ::testing::TempDir() + "fifl_spanfile_test";
  fs::create_directories(dir);
  const std::string path = dir + "/node_0.trace.jsonl";

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 100;
  {
    obs::SpanBuffer buffer(path);
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&buffer, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          obs::SpanRecord rec;
          rec.trace_id = i + 1;
          rec.span_id = (t << 20) | i;
          rec.node = 0;
          rec.peer = static_cast<std::uint32_t>(t);
          rec.kind = obs::SpanKind::kRecv;
          rec.name = "model_broadcast";
          buffer.record(rec);
        }
        buffer.record_clock(
            obs::ClockSyncRecord{0, -static_cast<std::int64_t>(t), 10});
      });
    }
    for (auto& w : writers) w.join();
  }

  // Concurrent streaming must never interleave partial lines: the file
  // parses back into exactly the records written.
  const auto parsed = obs::read_trace_file(path);
  ASSERT_EQ(parsed.spans.size(), kThreads * kPerThread);
  ASSERT_EQ(parsed.clocks.size(), kThreads);
  std::set<std::uint64_t> span_ids;
  for (const auto& rec : parsed.spans) {
    EXPECT_EQ(rec.kind, obs::SpanKind::kRecv);
    EXPECT_EQ(rec.name, "model_broadcast");
    span_ids.insert(rec.span_id);
  }
  EXPECT_EQ(span_ids.size(), kThreads * kPerThread);
  fs::remove_all(dir);
}

// --- concurrency: FlightRing -----------------------------------------------

TEST(Tracing, FlightRingConcurrentNotesAndSnapshots) {
  static constexpr std::size_t kThreads = 4;
  static constexpr std::uint64_t kPerThread = 5000;
  auto ring = std::make_unique<obs::FlightRing>();

  // Writers correlate their fields (peer == msg_type == thread id,
  // round == detail == i) so any torn slot a snapshot accepted would
  // break a correlation.
  std::atomic<bool> done{false};
  std::thread reader([&ring, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const auto events = ring->snapshot();
      EXPECT_LE(events.size(), obs::FlightRing::kCapacity);
      std::uint64_t prev_seq = 0;
      for (const auto& ev : events) {
        EXPECT_GT(ev.seq, prev_seq);
        prev_seq = ev.seq;
        EXPECT_EQ(ev.peer, ev.msg_type);
        EXPECT_LT(ev.peer, kThreads);
        EXPECT_EQ(ev.round, ev.detail);
        EXPECT_LT(ev.round, kPerThread);
        EXPECT_EQ(ev.kind, obs::FlightEventKind::kSend);
      }
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ring->note(obs::FlightEventKind::kSend,
                   static_cast<std::uint32_t>(t),
                   static_cast<std::uint8_t>(t), i, i);
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring->total_noted(), kThreads * kPerThread);
  const auto final_events = ring->snapshot();
  EXPECT_EQ(final_events.size(), obs::FlightRing::kCapacity);
  for (const auto& ev : final_events) {
    EXPECT_EQ(ev.peer, ev.msg_type);
    EXPECT_EQ(ev.round, ev.detail);
  }
}

// --- cluster harness --------------------------------------------------------

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kServers = 2;
constexpr std::size_t kRounds = 3;
constexpr std::uint64_t kSeed = 42;
constexpr NodeKey kLeadKey = kWorkers;          // server 0
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

data::TrainTestSplit make_split() {
  auto spec = data::mnist_like(kWorkers * 120, 21);
  spec.image_size = 8;
  spec.noise = 0.5;
  return data::make_synthetic_split(spec, 200);
}

std::vector<fl::BehaviourPtr> mixed_behaviours() {
  std::vector<fl::BehaviourPtr> b;
  for (int i = 0; i < 3; ++i) {
    b.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  b.push_back(std::make_unique<fl::SignFlipBehaviour>(6.0));
  return b;
}

std::vector<fl::WorkerSetup> make_setups(const data::TrainTestSplit& split) {
  util::Rng rng(3);
  return fl::make_worker_setups(split.train, mixed_behaviours(), rng);
}

ClusterConfig cluster_config(std::shared_ptr<Transport> transport) {
  ClusterConfig cfg;
  cfg.sim.seed = kSeed;
  cfg.sim.batch_size = 64;
  cfg.fifl.servers = kServers;
  cfg.fifl.reputation.time_decay = false;
  cfg.rounds = kRounds;
  cfg.timeouts.join = std::chrono::milliseconds(30000);
  cfg.timeouts.phase = std::chrono::milliseconds(2500);
  cfg.timeouts.heartbeat = std::chrono::milliseconds(150);
  cfg.timeouts.liveness = std::chrono::milliseconds(1000);
  cfg.quorum.min_fraction = 0.5;
  cfg.transport_override = std::move(transport);
  return cfg;
}

struct RunOutput {
  std::vector<std::string> model_hashes;
  std::vector<std::vector<double>> reputations;
  std::vector<std::vector<double>> rewards;
};

RunOutput run_cluster() {
  const auto split = make_split();
  Cluster cluster(cluster_config(std::make_shared<LoopbackTransport>()),
                  mlp_factory(), make_setups(split), split.test);
  RunOutput out;
  for (const auto& row : cluster.run()) {
    out.model_hashes.push_back(row.model_hash);
    out.reputations.push_back(row.reputations);
    out.rewards.push_back(row.rewards);
  }
  return out;
}

/// Points both process-global trace sinks at `dir` ("" disables both),
/// exactly what FIFL_TRACE_DIR does at startup. Must run before the
/// Cluster is constructed: nodes resolve their NodeTracer eagerly.
void configure_tracing(const std::string& dir) {
  obs::TraceDir::global().configure(dir);
  obs::FlightRegistry::global().configure(dir);
}

// --- tentpole: traced run == untraced run, spans + clocks + flows ----------

TEST(Tracing, TracedClusterRunIsBitwiseIdenticalAndEmitsFlows) {
  configure_tracing("");
  const RunOutput untraced = run_cluster();

  const std::string dir = ::testing::TempDir() + "fifl_trace_cluster_test";
  fs::remove_all(dir);
  configure_tracing(dir);
  const RunOutput traced = run_cluster();
  configure_tracing("");

  // The determinism invariant: tracing may never change a hash, a
  // reputation, or a reward.
  EXPECT_EQ(traced.model_hashes, untraced.model_hashes);
  EXPECT_EQ(traced.reputations, untraced.reputations);
  EXPECT_EQ(traced.rewards, untraced.rewards);

  // Every node streamed its own span file, and every node recorded a
  // clock-sync estimate (the lead pins skew 0 as the reference).
  std::vector<obs::NodeTraceFile> files(kWorkers + kServers);
  for (std::uint32_t n = 0; n < kWorkers + kServers; ++n) {
    const std::string path =
        dir + "/node_" + std::to_string(n) + ".trace.jsonl";
    ASSERT_TRUE(fs::exists(path)) << path;
    files[n] = obs::read_trace_file(path);
    EXPECT_FALSE(files[n].spans.empty()) << "node " << n;
    ASSERT_FALSE(files[n].clocks.empty()) << "node " << n;
    for (const auto& rec : files[n].spans) EXPECT_EQ(rec.node, n);
  }
  EXPECT_EQ(files[kLeadKey].clocks.back().skew_us, 0);
  EXPECT_EQ(files[kLeadKey].clocks.back().rtt_us, 0);
  for (std::uint32_t n = 0; n < kWorkers; ++n) {
    EXPECT_GE(files[n].clocks.back().rtt_us, 0) << "node " << n;
  }

  // The lead's phase spans cover every round.
  std::set<std::pair<std::string, std::uint64_t>> phases;
  for (const auto& rec : files[kLeadKey].spans) {
    if (rec.kind == obs::SpanKind::kPhase) phases.insert({rec.name, rec.round});
  }
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(phases.count({"broadcast", r})) << "round " << r;
    EXPECT_TRUE(phases.count({"collect", r})) << "round " << r;
    EXPECT_TRUE(phases.count({"assess", r})) << "round " << r;
    EXPECT_TRUE(phases.count({"record", r})) << "round " << r;
  }

  // Cross-node flow: a recv span whose parent is a send span recorded on
  // a different node. At least one per round (the merged timeline's flow
  // arrows hang off exactly this relation).
  std::map<std::uint64_t, std::uint32_t> send_node_by_span;
  for (const auto& file : files) {
    for (const auto& rec : file.spans) {
      if (rec.kind == obs::SpanKind::kSend) {
        EXPECT_FALSE(send_node_by_span.count(rec.span_id))
            << "span id reused: " << rec.span_id;
        send_node_by_span[rec.span_id] = rec.node;
      }
    }
  }
  std::map<std::uint64_t, std::size_t> flows_by_round;
  for (const auto& file : files) {
    for (const auto& rec : file.spans) {
      if (rec.kind != obs::SpanKind::kRecv) continue;
      const auto it = send_node_by_span.find(rec.parent_span_id);
      if (it != send_node_by_span.end() && it->second != rec.node) {
        ++flows_by_round[rec.round];
      }
    }
  }
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    EXPECT_GE(flows_by_round[r], 1u) << "round " << r;
  }

  fs::remove_all(dir);
}

// --- flight recorder postmortems -------------------------------------------

/// Loads the single postmortem written for `reason` and returns the
/// parsed JSON document.
obs::JsonValue load_postmortem(const std::string& dir,
                               const std::string& reason) {
  const std::string path = dir + "/postmortem_1_" + reason + ".json";
  EXPECT_TRUE(fs::exists(path)) << path;
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return obs::json_parse(text);
}

TEST(Tracing, ByzantineDivergenceDumpsPostmortem) {
  const std::string dir = ::testing::TempDir() + "fifl_trace_byz_test";
  fs::remove_all(dir);
  configure_tracing(dir);

  FaultSchedule schedule;
  schedule.byzantine.push_back(kFollowerKey);
  auto faulty = std::make_shared<FaultyTransport>(
      std::make_unique<LoopbackTransport>(), schedule);

  const auto split = make_split();
  Cluster cluster(cluster_config(faulty), mlp_factory(), make_setups(split),
                  split.test);
  try {
    cluster.run();
    FAIL() << "a Byzantine follower must trip the replica cross-check";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(obs::FlightRegistry::global().dump_count(), 1u);

  const auto doc = load_postmortem(dir, "byzantine_divergence");
  configure_tracing("");
  EXPECT_EQ(doc.at("postmortem").as_string(), "byzantine_divergence");

  // Every cluster node ring is in the dump, and the lead's ring carries
  // the divergence event naming the Byzantine follower as peer.
  std::set<std::uint64_t> node_ids;
  bool lead_saw_divergence = false;
  for (const auto& node : doc.at("nodes").array) {
    const auto id = static_cast<std::uint64_t>(node.at("node").as_number());
    node_ids.insert(id);
    const auto& events = node.at("events").array;
    EXPECT_GT(events.size(), 0u) << "node " << id;
    if (id != kLeadKey) continue;
    for (const auto& ev : events) {
      if (ev.at("kind").as_string() != "divergence") continue;
      lead_saw_divergence = true;
      EXPECT_EQ(static_cast<std::uint64_t>(ev.at("peer").as_number()),
                kFollowerKey);
    }
  }
  EXPECT_TRUE(lead_saw_divergence);
  for (std::uint32_t n = 0; n < kWorkers + kServers; ++n) {
    EXPECT_TRUE(node_ids.count(n)) << "node " << n << " missing from dump";
  }

  fs::remove_all(dir);
}

TEST(Tracing, BelowQuorumAbortDumpsPostmortem) {
  const std::string dir = ::testing::TempDir() + "fifl_trace_quorum_test";
  fs::remove_all(dir);
  configure_tracing(dir);

  // Worker 3 dies after round 0's uploads; with a quorum floor of 1.0
  // the lead must abort round 1 and dump the recorder on its way out.
  FaultSchedule schedule;
  schedule.crashes.push_back(NodeCrash{.node = 3, .after_uploads = kServers});
  auto faulty = std::make_shared<FaultyTransport>(
      std::make_unique<LoopbackTransport>(), schedule);

  auto cfg = cluster_config(faulty);
  cfg.quorum.min_fraction = 1.0;
  const auto split = make_split();
  Cluster cluster(cfg, mlp_factory(), make_setups(split), split.test);
  try {
    cluster.run();
    FAIL() << "a below-quorum round must abort the run";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("quorum"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(obs::FlightRegistry::global().dump_count(), 1u);

  const auto doc = load_postmortem(dir, "quorum_abort");
  configure_tracing("");
  EXPECT_EQ(doc.at("postmortem").as_string(), "quorum_abort");

  bool lead_saw_abort = false;
  for (const auto& node : doc.at("nodes").array) {
    if (static_cast<std::uint64_t>(node.at("node").as_number()) != kLeadKey) {
      continue;
    }
    for (const auto& ev : node.at("events").array) {
      if (ev.at("kind").as_string() == "quorum_abort") lead_saw_abort = true;
    }
  }
  EXPECT_TRUE(lead_saw_abort);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace fifl::net
