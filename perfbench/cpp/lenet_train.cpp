// lenet_train: FederatedTrainer::run at the quickstart shape — LeNet on
// MNIST-S 1×28×28, N=10 (8 honest, sign-flip p_s=6, data-poison p_d=0.6),
// M=2, batch 32, K=1, no channel loss. Local SGD is almost the whole
// round, so nn/tensor/pool changes show here and assessment or wire
// changes must not.
#include <memory>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "net/node.hpp"
#include "nn/models.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace core = fifl::core;
namespace fl = fifl::fl;

constexpr std::size_t kWorkers = 10;
constexpr std::size_t kSamplesPerWorker = 600;
constexpr std::size_t kTestSamples = 1000;
constexpr std::size_t kWarmup = 5;
/// Sets the timed round count from --seconds; a fixed constant, never a
/// measurement, so the count (and every output) repeats for a seed.
constexpr double kNominalRoundsPerS = 10.0;

std::vector<bool> attackers() {
  std::vector<bool> a(kWorkers, false);
  a[kWorkers - 2] = a[kWorkers - 1] = true;
  return a;
}

core::FiflConfig fifl_config() {
  core::FiflConfig cfg;
  cfg.servers = 2;
  cfg.detection.threshold = 0.0;
  return cfg;
}

struct Federation {
  std::unique_ptr<fl::Simulator> sim;
  std::unique_ptr<core::FiflEngine> engine;
  std::unique_ptr<core::FederatedTrainer> trainer;
};

Federation build(std::uint64_t seed, std::vector<SetupTiming>& timings) {
  const double t0 = now_ms();
  auto split = fifl::data::make_synthetic_split(
      fifl::data::mnist_like(kWorkers * kSamplesPerWorker, seed), kTestSamples);
  const double t1 = now_ms();

  std::vector<fl::BehaviourPtr> behaviours;
  for (std::size_t i = 0; i + 2 < kWorkers; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(6.0));
  behaviours.push_back(std::make_unique<fl::DataPoisonBehaviour>(0.6));
  fl::SimulatorConfig sim_cfg;
  sim_cfg.batch_size = 32;
  sim_cfg.local_iterations = 1;
  sim_cfg.learning_rate = 0.05;
  sim_cfg.global_learning_rate = 0.05;
  sim_cfg.seed = seed ^ 0x5eedULL;
  fl::ModelFactory factory = [](fifl::util::Rng& rng) {
    return fifl::nn::make_lenet({.channels = 1, .image_size = 28, .classes = 10},
                                rng);
  };
  fifl::util::Rng rng(seed + 1);
  Federation f;
  f.sim = std::make_unique<fl::Simulator>(
      sim_cfg, factory,
      fl::make_worker_setups(split.train, std::move(behaviours), rng),
      std::move(split.test));
  f.engine = std::make_unique<core::FiflEngine>(fifl_config(), kWorkers,
                                                f.sim->parameter_count());
  core::TrainerConfig trainer_cfg;
  trainer_cfg.eval_every = 0;  // evaluate once, after the last round
  f.trainer = std::make_unique<core::FederatedTrainer>(f.sim.get(),
                                                       f.engine.get(), trainer_cfg);
  f.trainer->set_trace_recorder(nullptr);
  timings.push_back(SetupTiming{{{"data.synth_ms", t1 - t0},
                                 {"fl.init_ms", now_ms() - t1}}});
  return f;
}

std::string model_hash(fl::Simulator& sim) {
  return fifl::net::parameter_hash(sim.global_model().flatten_parameters());
}

/// One trainer run of `warmup + timed` rounds. A round's wall time runs
/// from the previous round's report observer to this one's; evaluation
/// happens after the last observer, so it is in no sample. With a span
/// log the observer also records every round's spans and runs the shadow
/// contribution/incentive calls — after its own timestamp, so they stay
/// outside every round span.
struct Pass {
  std::vector<double> round_ms;  // timed rounds
  Usage usage_start, usage_end;
  double wall_start = 0.0;
  double wall_ms = 0.0;
  std::string warmup_hash;  // θ after the warm-up rounds
  std::vector<double> warmup_reputations;
  std::string final_hash;
  std::vector<double> final_reputations;
  double final_loss = 0.0;
  double fairness_sum = 0.0;
  double moved_bytes = 0.0;    // gradients up + θ down, timed rounds
  double detect_bytes = 0.0;   // uploads + benchmark read, timed rounds
  double detect_ms_sum = 0.0;  // engine-reported, timed rounds
  std::size_t executed = 0;
  std::size_t degraded = 0;
  bool shadow_matches = true;
  bool crashed = false;
  fifl::obs::MetricsSnapshot metrics_start, metrics_end;
};

Pass run_pass(Federation& f, std::size_t warmup, std::size_t timed,
              SpanLog* log) {
  Pass pass;
  pass.round_ms.reserve(timed);
  const std::size_t total = warmup + timed;
  const auto params = static_cast<double>(f.sim->parameter_count());
  double round_start = now_ms();
  f.trainer->set_report_observer(
      [&](const core::RoundReport& report, std::span<const fl::Upload> uploads) {
        const double now = now_ms();
        const std::size_t r = report.round;
        if (report.degraded) ++pass.degraded;
        if (r >= warmup) {
          pass.round_ms.push_back(now - round_start);
          pass.fairness_sum += report.fairness;
          std::size_t arrived = 0;
          for (const fl::Upload& u : uploads) arrived += u.arrived ? 1 : 0;
          pass.moved_bytes += 4.0 * params * static_cast<double>(arrived + kWorkers);
          pass.detect_bytes += 4.0 * params * static_cast<double>(arrived + 1);
          pass.detect_ms_sum += report.detect_ms;
        }
        if (r + 1 == total) {
          pass.usage_end = usage_now();
          pass.wall_ms = now - pass.wall_start;
          pass.metrics_end = fifl::obs::MetricsRegistry::global().snapshot();
        }
        if (log) {
          pass.shadow_matches =
              record_round_spans(*log, fifl_config(), report, uploads, round_start,
                                 now, f.sim->last_phase_times().local_train_ms) &&
              pass.shadow_matches;
        }
        if (r + 1 == warmup) {
          pass.warmup_hash = model_hash(*f.sim);
          pass.warmup_reputations = report.reputations;
          pass.metrics_start = fifl::obs::MetricsRegistry::global().snapshot();
          pass.usage_start = usage_now();
        }
        round_start = now_ms();
        if (r + 1 == warmup) pass.wall_start = round_start;
      });
  pass.executed = f.trainer->run(total);
  pass.crashed = f.trainer->crashed();
  pass.final_hash = model_hash(*f.sim);
  pass.final_reputations = f.engine->reputation().all_reputations();
  pass.final_loss = f.trainer->final_evaluation().loss;
  return pass;
}

void add_run_checks(Report& report, const Federation& f, const Pass& pass,
                    std::size_t total, const char* which) {
  const std::string tag = std::string(" (") + which + ")";
  report.operations(total, pass.degraded + (total - pass.executed));
  report.check(std::string("all_rounds_ran_undegraded_") + which,
               pass.executed == total && pass.degraded == 0 && !pass.crashed,
               std::to_string(pass.executed) + "/" + std::to_string(total) +
                   " rounds, " + std::to_string(pass.degraded) + " degraded" + tag);
  report.check(std::string("ledger_verify_chain_") + which,
               f.engine->ledger().verify_chain(),
               std::to_string(f.engine->ledger().block_count()) + " blocks" + tag);
}

}  // namespace

Report run_lenet_train(const Options& options) {
  Report report;
  const std::size_t timed = timed_rounds(options, kNominalRoundsPerS);
  const std::size_t total = kWarmup + timed;
  std::vector<SetupTiming> setups;
  build(options.seed, setups);  // a first, cold setup, measured only

  if (!options.trace) {
    Federation main = build(options.seed, setups);
    const Pass pass = run_pass(main, kWarmup, timed, nullptr);
    add_run_checks(report, main, pass, total, "timed");
    // Keystone: a traced replay of the warm-up rounds lands on the same
    // parameters and reputations the untraced run held at that point.
    Federation replay = build(options.seed, setups);
    SpanLog scratch;
    const Pass traced = run_pass(replay, kWarmup, 0, &scratch);
    report.check("traced_equals_untraced",
                 traced.final_hash == pass.warmup_hash &&
                     traced.final_reputations == pass.warmup_reputations,
                 "θ hash and reputations after " + std::to_string(kWarmup) +
                     " rounds, traced replay vs timed run");

    report_round_times(report, pass.round_ms);
    const double rounds = static_cast<double>(timed);
    report.metric("cpu_ms_per_round",
                  (pass.usage_end.cpu_ms() - pass.usage_start.cpu_ms()) / rounds,
                  "ms", "lower", "process user+sys over the timed rounds / rounds");
    report_setup(report, options, setups);
    report.metric("peak_rss_mb", pass.usage_end.max_rss_mb, "MB", "lower",
                  "process high-water RSS at the end of the timed rounds");
    report_detection_rates(report, main.engine->ledger(), kWarmup, attackers());
    report.metric("reward_fairness", pass.fairness_sum / rounds, "ratio", "higher",
                  "mean C_s over the timed rounds");
    report.metric("wire_mb_per_round", pass.moved_bytes / rounds / 1e6, "MB", "lower",
                  "gradient bytes up + θ bytes down per timed round (in process)");
    return report;
  }

  Federation plain = build(options.seed, setups);
  const Pass untraced = run_pass(plain, kWarmup, timed, nullptr);
  add_run_checks(report, plain, untraced, total, "untraced");
  Federation traced_fed = build(options.seed, setups);
  SpanLog log;
  const Pass traced = run_pass(traced_fed, kWarmup, timed, &log);
  add_run_checks(report, traced_fed, traced, total, "traced");
  report.check("traced_equals_untraced",
               traced.final_hash == untraced.final_hash &&
                   traced.final_reputations == untraced.final_reputations,
               "θ hash and reputations after " + std::to_string(total) + " rounds");
  report.check("shadow_calls_match_engine", traced.shadow_matches,
               "shadow incentive rewards equal the engine's");
  log.write_jsonl(options.out_dir + "/lenet_train_seed" +
                  std::to_string(options.seed) + ".spans.jsonl");

  report_round_budget(report, log, kWarmup, timed, /*local_train=*/true,
                      mean(untraced.round_ms));
  report_ledger_rows(report, traced.metrics_start, traced.metrics_end,
                     traced_fed.engine->ledger(), kWarmup, timed,
                     traced.detect_bytes, traced.detect_ms_sum);
  report_usage_rows(report, untraced.usage_start, untraced.usage_end,
                    untraced.wall_ms, timed);
  report.metric("final_loss", untraced.final_loss, "loss", "lower",
                "test cross-entropy after all rounds (untraced run)");

  fifl::util::Rng probe_rng(options.seed + 2);
  auto probe_model = fifl::nn::make_lenet(
      {.channels = 1, .image_size = 28, .classes = 10}, probe_rng);
  report_step_probe(report, *probe_model, /*on_pool=*/true, options.seed + 3);
  report_codec_probe(report, *probe_model);
  report_setup(report, options, setups);
  return report;
}

}  // namespace perfbench
