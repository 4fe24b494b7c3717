// Extension bench: does FIFL's assessment survive honest gradient
// compression? Top-k sparsification is ubiquitous in deployed FL; a
// mechanism that punishes compressed-but-honest workers would be unusable.
// We sweep the keep fraction and report the honest accept rate (TP), the
// attacker reject rate (TN), model accuracy, and the honest workers' mean
// contribution.
#include "bench_util.hpp"

int main() {
  using namespace fifl;
  const std::size_t rounds = bench::env_rounds(12);
  const std::vector<double> keep_fractions{1.0, 0.5, 0.25, 0.1, 0.05, 0.01};

  util::Table table({"keep fraction", "honest accepted (TP)",
                     "attacker rejected (TN)", "final ACC",
                     "honest mean contribution"});
  for (double keep : keep_fractions) {
    bench::FederationSpec spec;
    spec.stack = bench::Stack::kLenetMnist;
    spec.workers = 8;
    spec.samples_per_worker = 300;
    spec.test_samples = 300;
    spec.seed = 2021 + static_cast<std::uint64_t>(keep * 100);
    std::vector<fl::BehaviourPtr> behaviours;
    for (int i = 0; i < 6; ++i) {
      if (keep >= 1.0) {
        behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
      } else {
        behaviours.push_back(std::make_unique<fl::SparsifyingBehaviour>(keep));
      }
    }
    behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(6.0));
    behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(8.0));
    auto fed = bench::make_federation(spec, std::move(behaviours));

    core::FiflConfig cfg;
    cfg.servers = 2;
    cfg.record_to_ledger = false;
    core::FiflEngine engine(cfg, fed.sim->worker_count(), fed.parameter_count);

    std::size_t honest_events = 0, honest_accepted = 0;
    std::size_t attacker_events = 0, attacker_rejected = 0;
    double honest_contrib = 0.0;
    std::size_t contrib_samples = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto uploads = fed.sim->collect_uploads();
      const auto report = engine.process_round(uploads);
      fed.sim->apply_gradient(report.global_gradient);
      for (std::size_t i = 0; i < uploads.size(); ++i) {
        if (report.detection.uncertain[i]) continue;
        if (uploads[i].ground_truth_attack) {
          ++attacker_events;
          attacker_rejected += 1 - report.detection.accepted[i];
        } else {
          ++honest_events;
          honest_accepted += static_cast<std::size_t>(report.detection.accepted[i]);
          honest_contrib += report.contribution.contributions[i];
          ++contrib_samples;
        }
      }
    }
    table.add_row(
        {util::format_double(keep, 2),
         util::format_double(static_cast<double>(honest_accepted) /
                                 static_cast<double>(honest_events), 3),
         util::format_double(static_cast<double>(attacker_rejected) /
                                 static_cast<double>(attacker_events), 3),
         util::format_double(fed.sim->evaluate().accuracy, 3),
         util::format_double(honest_contrib / static_cast<double>(contrib_samples), 3)});
  }

  bench::paper_note(
      "Extension: top-k sparsification preserves gradient direction, so "
      "compressed honest workers keep being accepted and attackers keep "
      "being rejected until compression becomes extreme.");
  bench::report("Extension: detection under gradient compression", table,
                "ext_compression.csv");
  return 0;
}
