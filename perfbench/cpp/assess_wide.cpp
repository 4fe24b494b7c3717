// assess_wide: FiflEngine::process_round alone, single-threaded, at N=100
// workers, gradient width P=65,536, M=4, over a bank of 4 pre-generated
// upload sets cycled round-robin. Honest uploads share a per-set direction
// plus per-worker noise; 20% of workers attack (sign-flip, Gaussian noise,
// free-rider transforms from fl/attacks) and ~2% of uploads are lost, so
// uncertain events and benchmark-member substitution run. Detection,
// contribution, incentive and ledger are the whole round here, at a shape
// (a 26 MB upload set streaming past L2) unlike lenet_train's.
#include <cmath>
#include <memory>

#include "core/fifl.hpp"
#include "fl/attacks.hpp"
#include "nn/layers.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace core = fifl::core;
namespace fl = fifl::fl;

constexpr std::size_t kWorkers = 100;
constexpr std::size_t kAttackers = 20;  // the highest worker ids
constexpr std::size_t kWidth = 65536;
constexpr std::size_t kSets = 4;
constexpr std::size_t kSamples = 600;
constexpr double kNoise = 1.0;         // per-worker noise σ, per coordinate
constexpr double kLossRate = 0.02;
constexpr std::size_t kWarmup = 2 * kSets;
constexpr double kNominalRoundsPerS = 60.0;  // see lenet_train.cpp

core::FiflConfig fifl_config() {
  core::FiflConfig cfg;
  cfg.servers = 4;
  // Honest uploads score ~0.5 (cosine); noise and free-riders score ~0, so
  // a threshold between them gives every seed the same clean split.
  cfg.detection.threshold = 0.1;
  return cfg;
}

std::vector<bool> attackers() {
  std::vector<bool> a(kWorkers, false);
  for (std::size_t i = kWorkers - kAttackers; i < kWorkers; ++i) a[i] = true;
  return a;
}

struct UploadSet {
  std::vector<float> direction;  // the honest mean
  std::vector<fl::Upload> uploads;
};

/// The attackers cycle through the three gradient transforms.
fl::BehaviourPtr attack(std::size_t k) {
  switch (k % 3) {
    case 0: return std::make_unique<fl::SignFlipBehaviour>(6.0);
    case 1: return std::make_unique<fl::GaussianNoiseBehaviour>(1.0);
    default: return std::make_unique<fl::FreeRiderBehaviour>(0.01);
  }
}

std::vector<UploadSet> make_bank(std::uint64_t seed) {
  std::vector<UploadSet> bank(kSets);
  fifl::util::Rng rng(seed);
  const auto spread = static_cast<float>(kNoise * std::sqrt(3.0));
  for (std::size_t s = 0; s < kSets; ++s) {
    UploadSet& set = bank[s];
    set.direction.resize(kWidth);
    for (float& v : set.direction) v = static_cast<float>(rng.gaussian());
    set.uploads.resize(kWorkers);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      fl::Upload& up = set.uploads[i];
      up.worker = static_cast<fifl::chain::NodeId>(i);
      up.samples = kSamples;
      // Set 0 loses worker 0, a first-round server member, so the engine
      // must substitute a benchmark member.
      up.arrived = !(s == 0 && i == 0) && !rng.bernoulli(kLossRate);
      if (!up.arrived) continue;
      // Honest: direction + uniform noise of variance σ² (cheaper to draw
      // than Gaussian at 6.5M values per set).
      fl::Gradient g(kWidth);
      for (std::size_t k = 0; k < kWidth; ++k) {
        g[k] = set.direction[k] +
               spread * static_cast<float>(2.0 * rng.uniform() - 1.0);
      }
      if (i >= kWorkers - kAttackers) {
        const fl::BehaviourPtr behaviour = attack(i);
        if (behaviour->skips_training()) g.zero();
        g = behaviour->transform(std::move(g), rng);
        up.ground_truth_attack = true;
      }
      up.gradient = std::move(g);
    }
  }
  return bank;
}

struct Setup {
  std::vector<UploadSet> bank;
  std::unique_ptr<core::FiflEngine> engine;
};

void build(Setup& setup, std::uint64_t seed, std::vector<SetupTiming>& timings) {
  setup = Setup{};  // release the previous bank before drawing a new one
  const double t0 = now_ms();
  setup.bank = make_bank(seed);
  const double t1 = now_ms();
  setup.engine = std::make_unique<core::FiflEngine>(fifl_config(), kWorkers, kWidth);
  timings.push_back(SetupTiming{{{"data.synth_ms", t1 - t0},
                                 {"fl.init_ms", now_ms() - t1}}});
}

struct Pass {
  std::vector<double> round_ms;  // timed rounds
  Usage usage_start, usage_end;
  double wall_ms = 0.0;
  std::vector<double> warmup_reputations;
  std::vector<double> final_reputations;
  double fairness_sum = 0.0;
  double moved_bytes = 0.0;
  double detect_bytes = 0.0;
  double detect_ms_sum = 0.0;
  double final_loss = 0.0;
  std::size_t degraded = 0;
  bool shadow_matches = true;
  fifl::obs::MetricsSnapshot metrics_start, metrics_end;
};

Pass run_pass(Setup& setup, std::size_t warmup, std::size_t timed, SpanLog* log) {
  Pass pass;
  pass.round_ms.reserve(timed);
  const std::size_t total = warmup + timed;
  double wall_start = 0.0;
  for (std::size_t r = 0; r < total; ++r) {
    if (r == warmup) {
      pass.warmup_reputations = setup.engine->reputation().all_reputations();
      pass.metrics_start = fifl::obs::MetricsRegistry::global().snapshot();
      pass.usage_start = usage_now();
      wall_start = now_ms();
    }
    const UploadSet& set = setup.bank[r % kSets];
    const double start = now_ms();
    const core::RoundReport report = setup.engine->process_round(set.uploads);
    const double end = now_ms();
    if (report.degraded) ++pass.degraded;
    if (r >= warmup) {
      pass.round_ms.push_back(end - start);
      pass.fairness_sum += report.fairness;
      std::size_t arrived = 0;
      for (const fl::Upload& u : set.uploads) arrived += u.arrived ? 1 : 0;
      pass.moved_bytes += 4.0 * kWidth * static_cast<double>(arrived);
      pass.detect_bytes += 4.0 * kWidth * static_cast<double>(arrived + 1);
      pass.detect_ms_sum += report.detect_ms;
    }
    if (r + 1 == total) {
      pass.usage_end = usage_now();
      pass.wall_ms = now_ms() - wall_start;
      pass.metrics_end = fifl::obs::MetricsRegistry::global().snapshot();
      // The aggregate's squared error against the honest direction,
      // relative to the direction's own energy.
      double err = 0.0, energy = 0.0;
      for (std::size_t k = 0; k < kWidth; ++k) {
        const double d = set.direction[k];
        const double e = static_cast<double>(report.global_gradient[k]) - d;
        err += e * e;
        energy += d * d;
      }
      pass.final_loss = err / energy;
    }
    if (log) {
      pass.shadow_matches = record_round_spans(*log, fifl_config(), report,
                                               set.uploads, start, end, std::nullopt) &&
                            pass.shadow_matches;
    }
  }
  if (total == warmup) {
    pass.warmup_reputations = setup.engine->reputation().all_reputations();
  }
  pass.final_reputations = setup.engine->reputation().all_reputations();
  return pass;
}

void add_run_checks(Report& report, const Setup& setup, const Pass& pass,
                    std::size_t total, const char* which) {
  const std::string tag = std::string(" (") + which + ")";
  report.operations(total, pass.degraded);
  report.check(std::string("no_degraded_rounds_") + which, pass.degraded == 0,
               std::to_string(pass.degraded) + " degraded of " +
                   std::to_string(total) + tag);
  report.check(std::string("ledger_verify_chain_") + which,
               setup.engine->ledger().verify_chain(),
               std::to_string(setup.engine->ledger().block_count()) + " blocks" + tag);
}

}  // namespace

Report run_assess_wide(const Options& options) {
  Report report;
  const std::size_t timed = timed_rounds(options, kNominalRoundsPerS);
  const std::size_t total = kWarmup + timed;
  std::vector<SetupTiming> setups;
  Setup setup;
  build(setup, options.seed, setups);  // a first, cold setup, measured only

  if (!options.trace) {
    build(setup, options.seed, setups);
    const Pass pass = run_pass(setup, kWarmup, timed, nullptr);
    add_run_checks(report, setup, pass, total, "timed");
    const fifl::chain::Ledger& ledger = setup.engine->ledger();
    report_detection_rates(report, ledger, kWarmup, attackers());

    report_round_times(report, pass.round_ms);
    const double rounds = static_cast<double>(timed);
    report.metric("cpu_ms_per_round",
                  (pass.usage_end.cpu_ms() - pass.usage_start.cpu_ms()) / rounds,
                  "ms", "lower", "process user+sys over the timed rounds / rounds");
    report.metric("peak_rss_mb", pass.usage_end.max_rss_mb, "MB", "lower",
                  "process high-water RSS at the end of the timed rounds");
    report.metric("reward_fairness", pass.fairness_sum / rounds, "ratio", "higher",
                  "mean C_s over the timed rounds");
    report.metric("wire_mb_per_round", pass.moved_bytes / rounds / 1e6, "MB",
                  "lower", "arrived upload bytes per timed round (in process)");

    // Keystone: a traced replay of the warm-up rounds reaches the same
    // reputations the untraced run held at that point.
    const std::vector<double> warm = pass.warmup_reputations;
    build(setup, options.seed, setups);
    SpanLog scratch;
    const Pass traced = run_pass(setup, kWarmup, 0, &scratch);
    report.check("traced_equals_untraced", traced.final_reputations == warm,
                 "reputations after " + std::to_string(kWarmup) +
                     " rounds, traced replay vs timed run");
    report_setup(report, options, setups);
    return report;
  }

  build(setup, options.seed, setups);
  const Pass untraced = run_pass(setup, kWarmup, timed, nullptr);
  add_run_checks(report, setup, untraced, total, "untraced");
  build(setup, options.seed, setups);
  SpanLog log;
  const Pass traced = run_pass(setup, kWarmup, timed, &log);
  add_run_checks(report, setup, traced, total, "traced");
  report.check("traced_equals_untraced",
               traced.final_reputations == untraced.final_reputations,
               "reputations after " + std::to_string(total) + " rounds");
  report.check("shadow_calls_match_engine", traced.shadow_matches,
               "shadow incentive rewards equal the engine's");
  log.write_jsonl(options.out_dir + "/assess_wide_seed" +
                  std::to_string(options.seed) + ".spans.jsonl");

  report_round_budget(report, log, kWarmup, timed, /*local_train=*/false,
                      mean(untraced.round_ms));
  report_ledger_rows(report, traced.metrics_start, traced.metrics_end,
                     setup.engine->ledger(), kWarmup, timed, traced.detect_bytes,
                     traced.detect_ms_sum);
  report_usage_rows(report, untraced.usage_start, untraced.usage_end,
                    untraced.wall_ms, timed);
  report.metric("final_loss", untraced.final_loss, "loss", "lower",
                "last aggregate's squared error vs the honest direction / its "
                "energy (untraced run)");

  // Codec costs at this width: Linear(255, 256) has exactly 65,536 params.
  fifl::util::Rng probe_rng(options.seed + 2);
  fifl::nn::Sequential probe_model;
  probe_model.emplace<fifl::nn::Linear>(255, 256, probe_rng);
  report_codec_probe(report, probe_model);
  report_setup(report, options, setups);
  return report;
}

}  // namespace perfbench
