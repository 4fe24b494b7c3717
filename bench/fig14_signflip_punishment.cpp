// Figure 14 (Sec. 5.3.4): cumulative punishment of sign-flipping
// attackers grows with their attack intensity p_s. Four attackers with
// p_s ∈ {2, 4, 6, 8} among honest workers; zero-gradient anchor (any
// flipped gradient is worse than uploading nothing). Initial reputation 1
// so the punishment signal is visible before reputations collapse.
#include "bench_util.hpp"

int main() {
  using namespace fifl;
  const std::size_t rounds = bench::env_rounds(40);
  const std::vector<double> p_s{2.0, 4.0, 6.0, 8.0};

  bench::FederationSpec spec;
  spec.stack = bench::Stack::kLenetMnist;
  spec.workers = p_s.size() + 6;
  spec.samples_per_worker = 400;
  spec.test_samples = 300;
  spec.batch_size = 64;
  std::vector<fl::BehaviourPtr> behaviours;
  for (double intensity : p_s) {
    behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(intensity));
  }
  for (std::size_t i = p_s.size(); i < spec.workers; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  auto fed = bench::make_federation(spec, std::move(behaviours));

  core::FiflConfig cfg;
  cfg.servers = 2;
  cfg.record_to_ledger = false;
  cfg.reputation.initial = 1.0;
  cfg.incentive.punishment_cap = 50.0;
  core::FiflEngine engine(cfg, fed.sim->worker_count(), fed.parameter_count);
  // Sec. 4.5 initial server selection: the task publisher's verification
  // pass ranks the clean workers highest, so the first benchmark cluster
  // is honest (the first p_s.size() workers here are the degraded ones).
  {
    std::vector<double> verification(fed.sim->worker_count(), 1.0);
    for (std::size_t i = 0; i < p_s.size(); ++i) verification[i] = 0.1;
    engine.initialize_servers(verification);
  }

  std::vector<std::string> headers{"round"};
  for (double intensity : p_s) {
    headers.push_back("p_s=" + util::format_double(intensity, 0));
  }
  headers.push_back("honest mean");
  util::Table table(headers);

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto uploads = fed.sim->collect_uploads();
    const auto report = engine.process_round(uploads);
    fed.sim->apply_gradient(report.global_gradient);
    if ((r + 1) % 4 == 0) {
      std::vector<std::string> row{std::to_string(r + 1)};
      for (std::size_t k = 0; k < p_s.size(); ++k) {
        row.push_back(util::format_double(engine.cumulative().total(k), 2));
      }
      double honest = 0.0;
      for (std::size_t k = p_s.size(); k < spec.workers; ++k) {
        honest += engine.cumulative().total(k);
      }
      row.push_back(util::format_double(
          honest / static_cast<double>(spec.workers - p_s.size()), 3));
      table.add_row(row);
    }
  }

  bench::paper_note(
      "Fig 14: punishment is positively related to attack intensity — the "
      "p_s=8 attacker accumulates the largest penalty, honest workers earn "
      "positive rewards throughout.");
  bench::report("Figure 14: cumulative punishment by sign-flip intensity",
                table, "fig14_punishment.csv");
  return 0;
}
