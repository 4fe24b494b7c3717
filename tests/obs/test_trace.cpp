#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/trace.hpp"

namespace fifl::obs {
namespace {

RoundTrace sample_trace() {
  RoundTrace t;
  t.round = 17;
  t.degraded = false;
  t.fairness = 0.875;
  t.evaluated = true;
  t.eval_loss = 1.5;
  t.eval_accuracy = 0.625;
  t.phases.local_train_ms = 12.5;
  t.phases.channel_ms = 0.25;
  t.phases.detect_ms = 3.0;
  t.phases.aggregate_ms = 1.0;
  t.phases.ledger_ms = 0.5;
  WorkerTrace accepted;
  accepted.id = 0;
  accepted.arrived = true;
  accepted.accepted = true;
  accepted.detection_score = 0.75;
  accepted.reputation = 0.5;
  accepted.contribution = 0.125;
  accepted.reward = 0.0625;
  WorkerTrace absent;
  absent.id = 1;
  absent.arrived = false;
  absent.uncertain = true;
  absent.detection_score = std::numeric_limits<double>::quiet_NaN();
  absent.reputation = -0.25;
  t.workers = {accepted, absent};
  return t;
}

void expect_equal(const RoundTrace& a, const RoundTrace& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_DOUBLE_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.evaluated, b.evaluated);
  if (a.evaluated) {
    EXPECT_DOUBLE_EQ(a.eval_loss, b.eval_loss);
    EXPECT_DOUBLE_EQ(a.eval_accuracy, b.eval_accuracy);
  }
  EXPECT_DOUBLE_EQ(a.phases.local_train_ms, b.phases.local_train_ms);
  EXPECT_DOUBLE_EQ(a.phases.channel_ms, b.phases.channel_ms);
  EXPECT_DOUBLE_EQ(a.phases.detect_ms, b.phases.detect_ms);
  EXPECT_DOUBLE_EQ(a.phases.aggregate_ms, b.phases.aggregate_ms);
  EXPECT_DOUBLE_EQ(a.phases.ledger_ms, b.phases.ledger_ms);
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    EXPECT_EQ(a.workers[i].id, b.workers[i].id);
    EXPECT_EQ(a.workers[i].arrived, b.workers[i].arrived);
    EXPECT_EQ(a.workers[i].accepted, b.workers[i].accepted);
    EXPECT_EQ(a.workers[i].uncertain, b.workers[i].uncertain);
    if (std::isnan(a.workers[i].detection_score)) {
      EXPECT_TRUE(std::isnan(b.workers[i].detection_score));
    } else {
      EXPECT_DOUBLE_EQ(a.workers[i].detection_score,
                       b.workers[i].detection_score);
    }
    EXPECT_DOUBLE_EQ(a.workers[i].reputation, b.workers[i].reputation);
    EXPECT_DOUBLE_EQ(a.workers[i].contribution, b.workers[i].contribution);
    EXPECT_DOUBLE_EQ(a.workers[i].reward, b.workers[i].reward);
  }
}

TEST(RoundTrace, JsonlRoundTrip) {
  const RoundTrace original = sample_trace();
  const std::string line = original.to_jsonl();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // NaN detection score must serialize as null, not "nan".
  EXPECT_EQ(line.find("nan"), std::string::npos);
  expect_equal(original, RoundTrace::from_jsonl(line));
}

TEST(RoundTrace, UnevaluatedRoundHasNullEval) {
  RoundTrace t = sample_trace();
  t.evaluated = false;
  const std::string line = t.to_jsonl();
  EXPECT_NE(line.find("\"eval\":null"), std::string::npos);
  EXPECT_FALSE(RoundTrace::from_jsonl(line).evaluated);
}

TEST(RoundTrace, FromJsonlRejectsMalformed) {
  EXPECT_THROW((void)RoundTrace::from_jsonl("not json"), std::runtime_error);
  EXPECT_THROW((void)RoundTrace::from_jsonl("{}"), std::runtime_error);
  EXPECT_THROW((void)RoundTrace::from_jsonl(R"({"round":1,"workers":3})"),
               std::runtime_error);
}

TEST(RoundTrace, FromJsonlRejectsNetBlockWithoutLateUploads) {
  RoundTrace t = sample_trace();
  t.has_net = true;
  t.net.late_uploads = 5;
  t.net.send_retries = 2;
  t.net.dropped_workers = 1;
  const std::string line = t.to_jsonl();
  const RoundTrace back = RoundTrace::from_jsonl(line);
  EXPECT_TRUE(back.has_net);
  EXPECT_EQ(back.net.late_uploads, 5u);
  EXPECT_EQ(back.net.send_retries, 2u);
  EXPECT_EQ(back.net.dropped_workers, 1u);

  const std::string field = "\"late_uploads\":5,";
  std::string without = line;
  const std::size_t at = without.find(field);
  ASSERT_NE(at, std::string::npos) << line;
  without.erase(at, field.size());
  EXPECT_THROW((void)RoundTrace::from_jsonl(without), std::runtime_error);
}

TEST(RoundTraceRecorder, MemoryOnlyRecorderIsEnabled) {
  RoundTraceRecorder recorder;
  EXPECT_TRUE(recorder.enabled());
  recorder.record(sample_trace());
  EXPECT_EQ(recorder.size(), 1u);
  expect_equal(sample_trace(), recorder.traces()[0]);
}

TEST(RoundTraceRecorder, FileRoundTrip) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "fifl_test_trace_roundtrip.jsonl")
                        .string();
  {
    RoundTraceRecorder recorder(path);
    RoundTrace t = sample_trace();
    recorder.record(t);
    t.round = 18;
    t.evaluated = false;
    recorder.record(t);
  }
  const auto traces = RoundTraceRecorder::read_jsonl_file(path);
  ASSERT_EQ(traces.size(), 2u);
  expect_equal(sample_trace(), traces[0]);
  EXPECT_EQ(traces[1].round, 18u);
  EXPECT_FALSE(traces[1].evaluated);
  std::remove(path.c_str());
}

TEST(RoundTraceRecorder, EmptyPathMeansMemoryOnly) {
  RoundTraceRecorder recorder("");
  EXPECT_TRUE(recorder.enabled());
  recorder.record(sample_trace());
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(RoundTraceRecorder, UnwritablePathThrows) {
  EXPECT_THROW(RoundTraceRecorder("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

TEST(RoundTraceRecorder, ReadMissingFileThrows) {
  EXPECT_THROW((void)RoundTraceRecorder::read_jsonl_file(
                   "/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

// End-to-end: a real FederatedTrainer run produces one fully-populated
// trace per round — the contract the figure benches and FIFL_TRACE_OUT
// consumers rely on.
TEST(RoundTraceRecorder, TrainerProducesOneTracePerRound) {
  auto spec = data::mnist_like(4 * 60, 9);
  spec.image_size = 8;
  auto split = data::make_synthetic_split(spec, 80);
  std::vector<fl::BehaviourPtr> behaviours;
  for (std::size_t i = 0; i < 3; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(8.0));
  util::Rng rng(4);
  fl::ModelFactory factory = [](util::Rng& factory_rng) {
    auto model = std::make_unique<nn::Sequential>();
    model->emplace<nn::Flatten>();
    model->emplace<nn::Linear>(64, 10, factory_rng);
    return model;
  };
  fl::Simulator sim(
      {}, factory, fl::make_worker_setups(split.train, std::move(behaviours), rng),
      split.test);
  core::FiflConfig cfg;
  cfg.servers = 2;
  core::FiflEngine engine(cfg, sim.worker_count(), sim.parameter_count());

  RoundTraceRecorder recorder;
  core::FederatedTrainer trainer(&sim, &engine, {.eval_every = 2});
  trainer.set_trace_recorder(&recorder);
  const std::size_t rounds = trainer.run(4);

  ASSERT_EQ(recorder.size(), rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const RoundTrace& t = recorder.traces()[r];
    EXPECT_EQ(t.round, r);
    ASSERT_EQ(t.workers.size(), sim.worker_count());
    EXPECT_GT(t.phases.local_train_ms, 0.0);
    EXPECT_GE(t.phases.detect_ms, 0.0);
    bool any_accepted = false, any_rejected = false;
    for (const WorkerTrace& w : t.workers) {
      EXPECT_TRUE(w.arrived);  // full participation, lossless channel
      EXPECT_FALSE(std::isnan(w.detection_score));
      any_accepted |= w.accepted;
      any_rejected |= !w.accepted && !w.uncertain;
    }
    EXPECT_TRUE(any_accepted);
    EXPECT_TRUE(any_rejected) << "sign-flipper should be rejected";
    // Trace rows mirror the engine's verdicts recorded in history.
    const core::RoundRecord& record = trainer.history()[r];
    std::size_t accepted = 0;
    for (const WorkerTrace& w : t.workers) accepted += w.accepted;
    EXPECT_EQ(accepted, record.accepted);
    EXPECT_EQ(t.evaluated, record.evaluated);
  }
  // Round-trip the whole run through JSONL text.
  for (const RoundTrace& t : recorder.traces()) {
    expect_equal(t, RoundTrace::from_jsonl(t.to_jsonl()));
  }
}

TEST(RoundTraceRecorder, NullRecorderDisablesTracing) {
  // Reuse a tiny FedAvg run: with the recorder explicitly detached the
  // trainer must not crash and must record nothing anywhere.
  auto spec = data::mnist_like(2 * 40, 9);
  spec.image_size = 8;
  auto split = data::make_synthetic_split(spec, 40);
  std::vector<fl::BehaviourPtr> behaviours;
  behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  util::Rng rng(4);
  fl::ModelFactory factory = [](util::Rng& factory_rng) {
    auto model = std::make_unique<nn::Sequential>();
    model->emplace<nn::Flatten>();
    model->emplace<nn::Linear>(64, 10, factory_rng);
    return model;
  };
  fl::Simulator sim(
      {}, factory, fl::make_worker_setups(split.train, std::move(behaviours), rng),
      split.test);
  core::FederatedTrainer trainer(&sim, nullptr, {});
  trainer.set_trace_recorder(nullptr);
  EXPECT_EQ(trainer.run(2), 2u);
}

}  // namespace
}  // namespace fifl::obs
