// Extension bench: FLI budget scheduling (Yu et al., discussed in the
// paper's related work) vs FIFL's per-round product rule, driven by the
// same real contribution stream from a FIFL training run.
//
// FLI spreads a fixed per-round budget over time to pay back workers'
// accumulated contributions ("regret" minimisation); FIFL pays each round
// proportionally to R_i·C_i and punishes negatives. The bench shows the
// structural differences the paper points out: FLI cannot punish (owed
// accounts never go negative) and defers payment when the budget is
// scarce, while FIFL settles every round.
#include "bench_util.hpp"

#include "market/fli.hpp"

int main() {
  using namespace fifl;
  const std::size_t rounds = bench::env_rounds(20);

  bench::FederationSpec spec;
  spec.stack = bench::Stack::kLenetMnist;
  spec.workers = 8;
  spec.samples_per_worker = 300;
  spec.test_samples = 200;
  spec.batch_size = 64;
  auto behaviours = bench::honest_behaviours(6);
  behaviours.push_back(std::make_unique<fl::DataPoisonBehaviour>(0.5));
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(6.0));
  auto fed = bench::make_federation(spec, std::move(behaviours));

  core::FiflConfig cfg;
  cfg.servers = 2;
  cfg.record_to_ledger = false;
  cfg.reputation.initial = 1.0;
  core::FiflEngine engine(cfg, fed.sim->worker_count(), fed.parameter_count);
  {
    std::vector<double> verification(fed.sim->worker_count(), 1.0);
    verification[6] = verification[7] = 0.1;
    engine.initialize_servers(verification);
  }

  market::FliScheduler fli(fed.sim->worker_count());
  const double budget_per_round = 0.6;  // deliberately scarce vs pool 1.0

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto uploads = fed.sim->collect_uploads();
    const auto report = engine.process_round(uploads);
    fed.sim->apply_gradient(report.global_gradient);
    (void)fli.step(budget_per_round, report.contribution.contributions);
  }

  util::Table table({"worker", "behaviour", "FIFL cumulative", "FLI paid",
                     "FLI still owed"});
  for (std::size_t i = 0; i < fed.sim->worker_count(); ++i) {
    table.add_row({std::to_string(i), fed.sim->worker(i).behaviour().name(),
                   util::format_double(engine.cumulative().total(i), 3),
                   util::format_double(fli.paid()[i], 3),
                   util::format_double(fli.owed()[i], 3)});
  }
  bench::paper_note(
      "Related-work contrast: FLI defers payment under a scarce budget and "
      "has no punishment channel (attackers simply earn ~0), while FIFL "
      "settles every round and drives attacker accounts negative.");
  bench::report("Extension: FLI budget scheduling vs FIFL", table,
                "ext_fli.csv");

  std::printf("\nFLI regret inequality after %zu rounds: %.4f (total paid "
              "%.3f of %.3f budget)\n",
              rounds, fli.regret_inequality(), fli.total_paid(),
              budget_per_round * static_cast<double>(rounds));
  return 0;
}
