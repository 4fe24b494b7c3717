// Figure 12 (Sec. 5.3.3): contributions separate workers by data quality.
// Workers with data-poison rates p_d ∈ {0, 0.2, 0.4, 0.6, 0.8}; the
// threshold worker is p_d = 0.2 (b_h = Dis(G̃, G_{0.2})), so only workers
// cleaner than that make positive contributions.
#include "bench_util.hpp"

int main() {
  using namespace fifl;
  const std::size_t rounds = bench::env_rounds(30);
  const std::vector<double> p_d{0.0, 0.2, 0.4, 0.6, 0.8};
  const std::size_t reference_index = 1;  // the p_d = 0.2 worker

  bench::FederationSpec spec;
  spec.stack = bench::Stack::kLenetMnist;
  spec.workers = p_d.size() + 5;  // plus clean workers to anchor training
  spec.samples_per_worker = 400;
  spec.test_samples = 300;
  spec.batch_size = 128;
  // Slow the schedule so the clean-gradient signal survives the horizon
  // (the paper trains 100+ iterations without converging).
  spec.learning_rate = 0.02;
  spec.data_noise = 0.7;
  std::vector<fl::BehaviourPtr> behaviours;
  for (double rate : p_d) {
    behaviours.push_back(std::make_unique<fl::DataPoisonBehaviour>(rate));
  }
  for (std::size_t i = p_d.size(); i < spec.workers; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  auto fed = bench::make_federation(spec, std::move(behaviours));

  core::FiflConfig cfg;
  cfg.servers = 2;
  cfg.record_to_ledger = false;
  // Detection stays on (S_y = 0.35 cosine): heavily poisoned gradients are
  // excluded from G̃ as in the full pipeline, so the aggregate stays near
  // the clean signal and contributions order monotonically in p_d. With
  // detection off the aggregate absorbs the average poison level and the
  // *mildly* poisoned worker becomes the closest — see DESIGN.md.
  cfg.detection.threshold = 0.35;
  cfg.contribution.anchor = core::Anchor::kReferenceWorker;
  cfg.contribution.reference_worker = reference_index;
  core::FiflEngine engine(cfg, fed.sim->worker_count(), fed.parameter_count);
  // Sec. 4.5 initial server selection: the task publisher's verification
  // pass ranks the clean workers highest, so the first benchmark cluster
  // is honest (the first p_d.size() workers here are the degraded ones).
  {
    std::vector<double> verification(fed.sim->worker_count(), 1.0);
    for (std::size_t i = 0; i < p_d.size(); ++i) verification[i] = 0.1;
    engine.initialize_servers(verification);
  }

  std::vector<std::string> headers{"round"};
  for (double rate : p_d) headers.push_back("p_d=" + util::format_double(rate, 1));
  util::Table table(headers);

  std::vector<double> mean_contrib(p_d.size(), 0.0);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto uploads = fed.sim->collect_uploads();
    const auto report = engine.process_round(uploads);
    fed.sim->apply_gradient(report.global_gradient);
    std::vector<std::string> row{std::to_string(r + 1)};
    for (std::size_t k = 0; k < p_d.size(); ++k) {
      const double c = report.contribution.contributions[k];
      mean_contrib[k] += c / static_cast<double>(rounds);
      row.push_back(util::format_double(c, 3));
    }
    if ((r + 1) % 3 == 0) table.add_row(row);
  }

  bench::paper_note(
      "Fig 12: with b_h anchored at the p_d=0.2 worker, only cleaner "
      "workers contribute positively; contribution ordering follows data "
      "quality (lower p_d => higher contribution).");
  bench::report("Figure 12: contributions by data-poison rate", table,
                "fig12_contribution.csv");

  std::printf("\nmeasured mean contributions: ");
  for (std::size_t k = 0; k < p_d.size(); ++k) {
    std::printf("p_d=%.1f -> %+.3f  ", p_d[k], mean_contrib[k]);
  }
  std::printf("\n");
  return 0;
}
