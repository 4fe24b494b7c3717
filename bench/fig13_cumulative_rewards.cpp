// Figure 13 (Sec. 5.3.4): cumulative rewards/punishments under FIFL for
// workers of different data quality, with b_h = ||G_{0.2}, G̃|| (the
// p_d = 0.2 worker is the barrier). Workers cleaner than the barrier
// accumulate rewards ordered by quality; dirtier workers accumulate
// punishments. Initial reputation is 1 ("trusted until proven otherwise")
// so punishments are visible from round one — see DESIGN.md.
#include "bench_util.hpp"

int main() {
  using namespace fifl;
  // Horizon stops pre-convergence: once the clean task is fit, a clean
  // worker's gradient decays to minibatch noise while label-poisoned
  // workers keep a persistent gradient, and the quality ordering blurs
  // (the paper's 100-iteration MNIST runs also stay pre-convergence).
  const std::size_t rounds = bench::env_rounds(16);
  const std::vector<double> p_d{0.0, 0.1, 0.2, 0.4, 0.6};
  const std::size_t reference_index = 2;  // the p_d = 0.2 worker

  bench::FederationSpec spec;
  spec.stack = bench::Stack::kLenetMnist;
  spec.workers = p_d.size() + 5;
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
  cfg.detection.threshold = 0.25;  // reject heavy poison from G̃ (cf. fig12)
  cfg.contribution.anchor = core::Anchor::kReferenceWorker;
  cfg.contribution.reference_worker = reference_index;
  cfg.reputation.initial = 1.0;
  cfg.incentive.punishment_cap = 1.0;
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

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto uploads = fed.sim->collect_uploads();
    const auto report = engine.process_round(uploads);
    fed.sim->apply_gradient(report.global_gradient);
    if ((r + 1) % 2 == 0) {
      std::vector<std::string> row{std::to_string(r + 1)};
      for (std::size_t k = 0; k < p_d.size(); ++k) {
        row.push_back(util::format_double(engine.cumulative().total(k), 3));
      }
      table.add_row(row);
    }
  }

  bench::paper_note(
      "Fig 13: cumulative rewards positively ordered by labelling quality; "
      "workers above the p_d=0.2 barrier earn, the rest are punished, and "
      "less reliable data draws harsher punishment.");
  bench::report("Figure 13: cumulative rewards by data quality", table,
                "fig13_cumulative.csv");

  std::printf("\nmeasured cumulative totals: ");
  for (std::size_t k = 0; k < p_d.size(); ++k) {
    std::printf("p_d=%.1f -> %+.2f  ", p_d[k], engine.cumulative().total(k));
  }
  std::printf("\n");
  return 0;
}
