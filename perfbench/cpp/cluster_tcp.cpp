// cluster_tcp: net::Cluster at M=2/N=8 over localhost TCP with the
// replicated ledger on (a quorum commit and 8 worker audit-proof round
// trips every round), dense codecs, default timeouts; 6 honest workers and
// 2 sign-flippers (p_s 6 and 10); an MLP 784→88→10 (69,970 parameters,
// LeNet's gradient width within 1%) on MNIST-S, batch 32. Each worker step
// is ~10× cheaper than LeNet's, so the wire, protocol, slice-verification
// and replicated-ledger layers are most of the round.
#include <array>
#include <memory>

#include "core/fifl.hpp"
#include "data/synthetic.hpp"
#include "net/cluster.hpp"
#include "net/tcp.hpp"
#include "nn/layers.hpp"
#include "timing_transport.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace core = fifl::core;
namespace fl = fifl::fl;
namespace net = fifl::net;

constexpr std::size_t kWorkers = 8;
constexpr std::size_t kServers = 2;
constexpr std::size_t kSamplesPerWorker = 600;
constexpr std::size_t kTestSamples = 1000;
constexpr std::size_t kWarmup = 10;
constexpr double kNominalRoundsPerS = 30.0;  // see lenet_train.cpp

/// Message types that recur every round. Join/Leave only frame the run and
/// heartbeats follow the wall clock, so the byte counts below leave them
/// out: what remains repeats exactly for a seed.
constexpr std::array kRoundTypes = {
    net::MessageType::kModelBroadcast, net::MessageType::kGradientUpload,
    net::MessageType::kSliceAggregate, net::MessageType::kAssessmentResult,
    net::MessageType::kRoundSummary,   net::MessageType::kBlockProposal,
    net::MessageType::kBlockVote,      net::MessageType::kAuditQuery,
    net::MessageType::kAuditProof};

fl::ModelFactory mlp_factory() {
  return [](fifl::util::Rng& rng) {
    auto model = std::make_unique<fifl::nn::Sequential>();
    model->emplace<fifl::nn::Flatten>();
    model->emplace<fifl::nn::Linear>(784, 88, rng);
    model->emplace<fifl::nn::ReLU>();
    model->emplace<fifl::nn::Linear>(88, 10, rng);
    return model;
  };
}

std::vector<bool> attackers() {
  std::vector<bool> a(kWorkers, false);
  a[kWorkers - 2] = a[kWorkers - 1] = true;
  return a;
}

std::vector<fl::WorkerSetup> make_setups(const fifl::data::Dataset& train,
                                         std::uint64_t seed) {
  std::vector<fl::BehaviourPtr> behaviours;
  for (std::size_t i = 0; i + 2 < kWorkers; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(6.0));
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(10.0));
  fifl::util::Rng rng(seed + 1);
  return fl::make_worker_setups(train, std::move(behaviours), rng);
}

fifl::data::TrainTestSplit make_split(std::uint64_t seed) {
  return fifl::data::make_synthetic_split(
      fifl::data::mnist_like(kWorkers * kSamplesPerWorker, seed), kTestSamples);
}

net::ClusterConfig cluster_config(std::uint64_t seed, std::size_t rounds) {
  net::ClusterConfig cfg;
  cfg.sim.batch_size = 32;
  cfg.sim.local_iterations = 1;
  cfg.sim.learning_rate = 0.05;
  cfg.sim.global_learning_rate = 0.05;
  cfg.sim.seed = seed ^ 0x5eedULL;
  cfg.fifl.servers = kServers;
  cfg.rounds = rounds;
  cfg.transport = net::TransportKind::kTcp;
  cfg.replicate_ledger = true;
  return cfg;
}

struct Run {
  std::unique_ptr<net::Cluster> cluster;  // kept for its ledgers and nodes
  std::vector<double> round_ms;           // timed rounds
  std::vector<std::string> hashes;
  std::vector<net::NetRoundResult> results;
  Usage usage_start, usage_end;
  double wall_ms = 0.0;
  fifl::obs::MetricsSnapshot metrics_start, metrics_end;  // timed rounds
  fifl::obs::MetricsSnapshot bytes_start, bytes_end;      // the whole run
  std::uint64_t audits = 0, audits_verified = 0, audits_expected = 0;
  std::uint64_t recv_calls = 0, recv_messages = 0;
};

/// One cluster from scratch: setup (synthetic data, Cluster construction,
/// TCP connect + Join up to the lead's first ModelBroadcast), then
/// `warmup + timed` rounds. Round r's wall time runs between the lead's
/// round callbacks for r−1 and r (round 0 starts at the first broadcast).
Run run_cluster(std::uint64_t seed, std::size_t warmup, std::size_t timed,
                SpanLog* log, std::vector<SetupTiming>& setups) {
  Run run;
  const std::size_t total = warmup + timed;
  const double t0 = now_ms();
  auto split = make_split(seed);
  const double t1 = now_ms();
  auto transport =
      std::make_shared<TimingTransport>(std::make_shared<net::TcpTransport>(), log);
  net::ClusterConfig cfg = cluster_config(seed, total);
  cfg.transport_override = transport;
  run.cluster = std::make_unique<net::Cluster>(
      cfg, mlp_factory(), make_setups(split.train, seed), std::move(split.test));
  const double t2 = now_ms();

  run.round_ms.reserve(timed);
  double last = 0.0;
  double wall_start = 0.0;
  run.cluster->set_round_callback(
      [&](const net::NetRoundResult& result, std::span<const float>) {
        const double now = now_ms();
        const std::uint64_t r = result.round;
        const double start = r == 0 ? transport->first_broadcast_ms() : last;
        if (r >= warmup) run.round_ms.push_back(now - start);
        if (log) log->add(Span{"round", r, start, now, kNoParent});
        if (r + 1 == total) {
          run.usage_end = usage_now();
          run.wall_ms = now - wall_start;
          run.metrics_end = fifl::obs::MetricsRegistry::global().snapshot();
        }
        if (r + 1 == warmup) {
          run.metrics_start = fifl::obs::MetricsRegistry::global().snapshot();
          run.usage_start = usage_now();
        }
        transport->set_round(r + 1);
        last = now_ms();
        if (r + 1 == warmup) wall_start = last;
      });
  run.bytes_start = fifl::obs::MetricsRegistry::global().snapshot();
  run.results = run.cluster->run();
  run.bytes_end = fifl::obs::MetricsRegistry::global().snapshot();
  run.cluster->set_round_callback(nullptr);  // it captures this frame
  setups.push_back(SetupTiming{{{"data.synth_ms", t1 - t0},
                                {"fl.init_ms", t2 - t1},
                                {"net.join_ms", transport->first_broadcast_ms() - t2}}});
  run.recv_calls = transport->recv_calls();
  run.recv_messages = transport->recv_messages();
  for (const auto& row : run.results) run.hashes.push_back(row.model_hash);
  for (std::size_t i = 0; i < run.cluster->worker_count(); ++i) {
    run.audits_expected += total - 1;  // every round but the last is audited
    for (const auto& outcome : run.cluster->worker_node(i).audit_outcomes()) {
      ++run.audits;
      run.audits_verified += outcome.verified ? 1 : 0;
    }
  }
  return run;
}

/// A setup repetition: a one-round cluster, only its setup time is read.
void setup_probe(std::uint64_t seed, std::vector<SetupTiming>& setups) {
  run_cluster(seed, 1, 0, nullptr, setups);
}

/// Per-round θ hashes of the in-process Simulator + FiflEngine on the same
/// seed, roster and configuration: what the cluster must reproduce.
std::vector<std::string> reference_hashes(std::uint64_t seed, std::size_t rounds) {
  auto split = make_split(seed);
  const net::ClusterConfig cfg = cluster_config(seed, rounds);
  fl::Simulator sim(cfg.sim, mlp_factory(), make_setups(split.train, seed),
                    std::move(split.test));
  core::FiflEngine engine(cfg.fifl, sim.worker_count(), sim.parameter_count());
  std::vector<std::string> hashes;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto uploads = sim.collect_uploads();
    const core::RoundReport report = engine.process_round(uploads);
    sim.apply_round(uploads, report.detection.accepted);
    hashes.push_back(net::parameter_hash(sim.global_model().flatten_parameters()));
  }
  return hashes;
}

void add_run_checks(Report& report, const Run& run, std::size_t total,
                    const std::vector<std::string>& reference, const char* which) {
  const std::string tag = std::string(" (") + which + ")";
  std::size_t degraded = 0;
  for (const auto& row : run.results) {
    degraded += row.degraded || row.counted != kWorkers ? 1 : 0;
  }
  const std::size_t missing = total - std::min(total, run.results.size());
  report.operations(total + run.audits_expected,
                    degraded + missing + (run.audits_expected - run.audits_verified));
  report.check(std::string("no_degraded_rounds_") + which,
               degraded == 0 && missing == 0,
               std::to_string(run.results.size()) + "/" + std::to_string(total) +
                   " rounds, " + std::to_string(degraded) + " degraded" + tag);
  report.check(std::string("every_audit_verified_") + which,
               run.audits_verified == run.audits_expected &&
                   run.audits == run.audits_expected,
               std::to_string(run.audits_verified) + " verified of " +
                   std::to_string(run.audits_expected) + tag);
  bool chains_verify = true;
  for (std::size_t j = 0; j < run.cluster->server_count(); ++j) {
    chains_verify = chains_verify &&
                    run.cluster->server_node(j).engine().ledger().verify_chain();
  }
  report.check(std::string("ledger_verify_chain_") + which, chains_verify,
               "both servers' engine ledgers" + tag);
  report.check(std::string("cluster_equals_simulator_") + which,
               run.hashes == reference,
               "θ hash after each of " + std::to_string(total) +
                   " rounds vs the in-process Simulator+FiflEngine" + tag);
}

}  // namespace

Report run_cluster_tcp(const Options& options) {
  Report report;
  const std::size_t timed = timed_rounds(options, kNominalRoundsPerS);
  const std::size_t total = kWarmup + timed;
  std::vector<SetupTiming> setups;
  setup_probe(options.seed, setups);  // a first, cold setup, measured only

  if (!options.trace) {
    setup_probe(options.seed, setups);
    const Run run = run_cluster(options.seed, kWarmup, timed, nullptr, setups);
    const std::vector<std::string> reference = reference_hashes(options.seed, total);
    add_run_checks(report, run, total, reference, "timed");
    report_detection_rates(report, run.cluster->lead().engine().ledger(), kWarmup,
                           attackers());

    report_round_times(report, run.round_ms);
    const double rounds = static_cast<double>(timed);
    report.metric("cpu_ms_per_round",
                  (run.usage_end.cpu_ms() - run.usage_start.cpu_ms()) / rounds, "ms",
                  "lower", "process user+sys over the timed rounds / rounds");
    report_setup(report, options, setups);
    report.metric("peak_rss_mb", run.usage_end.max_rss_mb, "MB", "lower",
                  "process high-water RSS at the end of the timed rounds");
    double fairness = 0.0;
    for (std::size_t r = kWarmup; r < run.results.size(); ++r) {
      fairness += run.results[r].fairness;
    }
    report.metric("reward_fairness", fairness / rounds, "ratio", "higher",
                  "mean C_s over the timed rounds");
    std::uint64_t bytes = 0;
    for (const auto type : kRoundTypes) {
      bytes += counter_delta(run.bytes_start, run.bytes_end,
                             std::string("net.bytes_tx.") + net::message_type_name(type));
    }
    report.metric("wire_mb_per_round",
                  static_cast<double>(bytes) / static_cast<double>(total) / 1e6, "MB",
                  "lower", "TCP frame bytes of the per-round message types / rounds");
    return report;
  }

  const Run untraced = run_cluster(options.seed, kWarmup, timed, nullptr, setups);
  SpanLog log;
  const Run traced = run_cluster(options.seed, kWarmup, timed, &log, setups);
  const std::vector<std::string> reference = reference_hashes(options.seed, total);
  add_run_checks(report, untraced, total, reference, "untraced");
  add_run_checks(report, traced, total, reference, "traced");
  log.write_jsonl(options.out_dir + "/cluster_tcp_seed" +
                  std::to_string(options.seed) + ".spans.jsonl");

  const double rounds = static_cast<double>(timed);
  const auto& a = traced.metrics_start;
  const auto& b = traced.metrics_end;
  auto hist_per_round = [&](const char* name) {
    return histogram_delta(a, b, name).sum / rounds;
  };
  const std::string phase_stat = "lead phase histogram sum / timed rounds (traced run)";
  const double broadcast = hist_per_round("net.phase.broadcast_ms");
  const double collect = hist_per_round("net.phase.collect_ms");
  const double commit = hist_per_round("net.phase.ledger_commit_ms");
  // The ledger-commit wait is nested in the assess phase; report assess's
  // own time so the phases add up.
  const double assess = hist_per_round("net.phase.assess_ms") - commit;
  report.metric("net.phase.broadcast_ms", broadcast, "ms", "lower", phase_stat);
  report.metric("net.phase.collect_ms", collect, "ms", "lower", phase_stat);
  report.metric("net.phase.assess_ms", assess, "ms", "lower",
                phase_stat + ", minus the nested ledger commit");
  report.metric("net.phase.ledger_commit_ms", commit, "ms", "lower", phase_stat);
  const double traced_round = mean(traced.round_ms);
  report.metric("net.round_remainder_ms",
                traced_round - broadcast - collect - assess - commit, "ms", "lower",
                "traced mean round − the four phases");
  report.metric("bench.traced_round_ms", traced_round, "ms", "lower",
                "mean lead round (callback to callback) of the traced run");
  report.budget("bench.traced_round_ms",
                {"net.phase.broadcast_ms", "net.phase.collect_ms", "net.phase.assess_ms",
                 "net.phase.ledger_commit_ms", "net.round_remainder_ms"});
  report.metric("bench.traced_rps_ratio", mean(untraced.round_ms) / traced_round, "ratio",
                "higher", "traced / untraced rounds_per_s (tracing overhead)");

  const std::string replica_stat = "histogram sum over both replicas / timed rounds";
  report.metric("core.detect_ms", hist_per_round("fifl.detect_ms"), "ms", "lower",
                replica_stat);
  report.metric("core.aggregate_ms", hist_per_round("fifl.aggregate_ms"), "ms",
                "lower", replica_stat);
  report.metric("chain.ledger_ms", hist_per_round("fifl.ledger_ms"), "ms", "lower",
                replica_stat);
  fifl::util::Rng probe_rng(options.seed + 2);
  auto probe_model = mlp_factory()(probe_rng);
  const auto params = static_cast<double>(probe_model->parameter_count());
  // Both replicas read every upload and the benchmark each round.
  report_ledger_rows(report, a, b, traced.cluster->lead().engine().ledger(),
                     kWarmup, timed,
                     kServers * 4.0 * params * (kWorkers + 1) * rounds,
                     histogram_delta(a, b, "fifl.detect_ms").sum);

  const auto total_rounds = static_cast<double>(total);
  const std::string byte_stat = "net.bytes_tx.<type> over the whole run / rounds";
  for (const char* type : {"gradient_upload", "model_broadcast", "slice_aggregate",
                           "assessment_result", "audit_proof", "block_proposal"}) {
    report.metric(std::string("net.bytes_per_round.") + type,
                  static_cast<double>(counter_delta(traced.bytes_start, traced.bytes_end,
                                                    std::string("net.bytes_tx.") + type)) /
                      total_rounds,
                  "bytes", "lower", byte_stat);
  }
  report.metric("net.msgs_per_round",
                static_cast<double>(counter_delta(a, b, "net.msgs_tx")) / rounds, "count",
                "lower", "net.msgs_tx over the timed rounds / rounds (heartbeats included)");
  double send_ms = 0.0;
  for (const Span& s : log.spans()) {
    if (s.name.rfind("send.", 0) == 0 && s.round >= kWarmup && s.round < total) {
      send_ms += s.duration_ms();
    }
  }
  report.metric("net.send_ms_per_round", send_ms / rounds, "ms", "lower",
                "summed send spans of the timed rounds / rounds, all nodes");
  report.metric("net.recv_useful_share",
                static_cast<double>(traced.recv_messages) /
                    static_cast<double>(traced.recv_calls),
                "ratio", "higher", "recv calls that returned a message / recv calls");
  for (const char* type : {"model_broadcast", "gradient_upload"}) {
    const std::string name = std::string("net.handle_ms.") + type;
    const auto h = histogram_delta(a, b, name);
    report.metric(name, h.count ? h.sum / static_cast<double>(h.count) : 0.0, "ms",
                  "lower", "mean per handled message over the timed rounds");
  }
  report.metric("chain.audit_verified_share",
                static_cast<double>(traced.audits_verified) /
                    static_cast<double>(traced.audits_expected),
                "ratio", "higher", "verified audit proofs / audits expected");
  report_usage_rows(report, untraced.usage_start, untraced.usage_end,
                    untraced.wall_ms, timed);
  report.metric("final_loss", untraced.cluster->final_evaluation().loss, "loss",
                "lower", "test cross-entropy of the final model (untraced run)");

  report_step_probe(report, *probe_model, /*on_pool=*/false, options.seed + 3);
  report_codec_probe(report, *probe_model);
  report_setup(report, options, setups);
  return report;
}

}  // namespace perfbench
