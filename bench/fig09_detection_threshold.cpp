// Figure 9 (Sec. 5.3.1): the detection threshold S_y.
// (a) detection accuracy vs. attack intensity p_s for several S_y —
//     stronger attacks deviate more and are easier to catch; smaller S_y
//     catches weak attacks at the cost of false alarms.
// (b) TP (honest accepted) / TN (attacker rejected) trade-off vs. S_y.
//
// One federation per p_s; every round's uploads are scored under ALL
// thresholds simultaneously (detection is pure arithmetic on the same
// gradients), which keeps the sweep cheap. Scores use the
// magnitude-sensitive projection normalisation (raw / ||G||^2): unlike
// cosine — under which a flipped gradient is trivially anti-parallel and
// detection is perfect at any S_y >= 0 — projection scores overlap near
// the threshold when gradients are noisy, reproducing the paper's
// imperfect-detection regime.
#include "bench_util.hpp"

namespace {

using namespace fifl;

struct SweepResult {
  // metrics[s] aggregated over rounds for threshold s.
  std::vector<core::DetectionMetrics> metrics;
};

SweepResult run_sweep(double p_s, const std::vector<double>& thresholds,
                      std::size_t rounds) {
  bench::FederationSpec spec;
  spec.stack = bench::Stack::kLenetMnist;
  spec.workers = 10;
  spec.samples_per_worker = 300;
  spec.batch_size = 8;  // small batches => noisy gradients => realistic overlap
  spec.test_samples = 200;
  spec.seed = 2021 + static_cast<std::uint64_t>(p_s * 10);
  auto behaviours = bench::honest_behaviours(7);
  for (int i = 0; i < 3; ++i) {
    behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(p_s));
  }
  auto fed = bench::make_federation(spec, std::move(behaviours));

  core::FiflConfig engine_cfg;
  engine_cfg.servers = 2;
  engine_cfg.record_to_ledger = false;
  core::FiflEngine engine(engine_cfg, fed.sim->worker_count(),
                          fed.parameter_count);

  SweepResult result;
  result.metrics.resize(thresholds.size());
  std::vector<std::size_t> considered(thresholds.size(), 0);
  std::vector<core::DetectionMetrics> sums(thresholds.size());

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto uploads = fed.sim->collect_uploads();
    // Drive training (and server selection) with the middle threshold.
    engine.detection().set_threshold(thresholds[thresholds.size() / 2]);
    const auto report = engine.process_round(uploads);
    fed.sim->apply_gradient(report.global_gradient);

    // Re-score the same uploads under each threshold.
    fl::ServerCluster cluster(report.servers, engine.plan());
    for (std::size_t s = 0; s < thresholds.size(); ++s) {
      core::DetectionModule det(
          {.threshold = thresholds[s], .score = core::ScoreKind::kProjection});
      const auto det_result = det.run(uploads, cluster);
      const auto metrics = core::evaluate_detection(det_result, uploads);
      sums[s].accuracy += metrics.accuracy;
      sums[s].true_positive += metrics.true_positive;
      sums[s].true_negative += metrics.true_negative;
      ++considered[s];
    }
  }
  for (std::size_t s = 0; s < thresholds.size(); ++s) {
    result.metrics[s].accuracy = sums[s].accuracy / static_cast<double>(considered[s]);
    result.metrics[s].true_positive =
        sums[s].true_positive / static_cast<double>(considered[s]);
    result.metrics[s].true_negative =
        sums[s].true_negative / static_cast<double>(considered[s]);
  }
  return result;
}

}  // namespace

int main() {
  using namespace fifl;
  const std::size_t rounds = bench::env_rounds(10);

  // Projection-normalised scores; the paper sweeps S_y in 0.09-0.15.
  const std::vector<double> thresholds{0.0, 0.03, 0.06, 0.09, 0.12, 0.15};
  const std::vector<double> intensities{0.5, 1.0, 2.0, 4.0, 8.0};

  std::vector<SweepResult> sweeps;
  for (double p_s : intensities) {
    sweeps.push_back(run_sweep(p_s, thresholds, rounds));
  }

  {
    std::vector<std::string> headers{"p_s"};
    for (double t : thresholds) headers.push_back("S_y=" + util::format_double(t, 2));
    util::Table table(headers);
    for (std::size_t i = 0; i < intensities.size(); ++i) {
      std::vector<std::string> row{util::format_double(intensities[i], 1)};
      for (std::size_t s = 0; s < thresholds.size(); ++s) {
        row.push_back(util::format_double(sweeps[i].metrics[s].accuracy, 3));
      }
      table.add_row(row);
    }
    bench::paper_note(
        "Fig 9a: detection accuracy rises with attack intensity; lowering "
        "S_y from 0.15 to 0.09 lifts accuracy for weak attacks (0.63->0.89 "
        "at p_s=2 in the paper).");
    bench::report("Figure 9(a): detection accuracy vs p_s per threshold",
                  table, "fig09a_accuracy.csv");
  }

  {
    // TP/TN vs threshold at a fixed moderate intensity (p_s = 2).
    const std::size_t fixed = 2;
    util::Table table({"S_y", "TP (honest accepted)", "TN (attacker rejected)"});
    for (std::size_t s = 0; s < thresholds.size(); ++s) {
      table.add_row({util::format_double(thresholds[s], 2),
                     util::format_double(sweeps[fixed].metrics[s].true_positive, 3),
                     util::format_double(sweeps[fixed].metrics[s].true_negative, 3)});
    }
    bench::paper_note(
        "Fig 9b: S_y trades the two error types against each other — "
        "tightening the threshold rejects more attackers (TN up) at the "
        "cost of honest false alarms (TP down).");
    bench::report("Figure 9(b): TP/TN trade-off vs S_y (p_s=2)", table,
                  "fig09b_tradeoff.csv");
  }
  return 0;
}
