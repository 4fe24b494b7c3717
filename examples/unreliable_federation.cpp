// Unreliable federation walkthrough: the paper's headline scenario.
//
// A federation with 38.5% unreliable workers (sign-flippers, data
// poisoners, a free-rider) trains twice from identical initial conditions:
// once under plain FedAvg and once under FIFL. The example prints the
// accuracy race, each worker's fate (reputation, cumulative reward), and
// the audit-chain summary.
//
//   ./build/examples/unreliable_federation [--rounds=25] [--drop=0.05]
#include <cstdio>

#include "core/fifl.hpp"
#include "data/synthetic.hpp"
#include "fl/simulator.hpp"
#include "nn/models.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace {

using namespace fifl;

// 13 workers, 5 unreliable (38.5%) — the fraction the paper takes from
// real-world noisy-label studies.
std::vector<fl::BehaviourPtr> make_mix() {
  std::vector<fl::BehaviourPtr> behaviours;
  for (int i = 0; i < 8; ++i) {
    behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(4.0));
  behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(8.0));
  behaviours.push_back(std::make_unique<fl::DataPoisonBehaviour>(0.6));
  behaviours.push_back(std::make_unique<fl::ProbabilisticBehaviour>(
      0.5, std::make_unique<fl::SignFlipBehaviour>(6.0)));
  behaviours.push_back(std::make_unique<fl::FreeRiderBehaviour>());
  return behaviours;
}

fl::Simulator make_sim(double drop_prob) {
  auto spec = data::mnist_like(13 * 400);
  auto split = data::make_synthetic_split(spec, 800);
  fl::SimulatorConfig cfg;
  cfg.channel_drop_prob = drop_prob;
  cfg.seed = 11;
  fl::ModelFactory factory = [](util::Rng& rng) {
    return nn::make_lenet({.channels = 1, .image_size = 28, .classes = 10}, rng);
  };
  util::Rng rng(99);
  return fl::Simulator(cfg, factory,
                       fl::make_worker_setups(split.train, make_mix(), rng),
                       split.test);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  const auto rounds = static_cast<std::size_t>(cfg.get_int("rounds", 25));
  const double drop = cfg.get_double("drop", 0.05);

  fl::Simulator fifl_sim = make_sim(drop);
  fl::Simulator fedavg_sim = make_sim(drop);

  core::FiflConfig engine_cfg;
  engine_cfg.servers = 3;
  engine_cfg.reputation.initial = 1.0;
  core::FiflEngine engine(engine_cfg, fifl_sim.worker_count(),
                          fifl_sim.parameter_count());
  // Initial server selection from a (simulated) verification pass: the
  // task publisher scores probe models; honest devices rank highest.
  std::vector<double> verification(fifl_sim.worker_count(), 0.9);
  for (std::size_t i = 8; i < fifl_sim.worker_count(); ++i) {
    verification[i] = 0.2;
  }
  engine.initialize_servers(verification);

  std::printf("Unreliable federation: 13 workers, 5 unreliable (38.5%%), "
              "channel drop %.0f%%\n\n", 100.0 * drop);
  std::printf("%-7s %-12s %-12s\n", "round", "FIFL acc", "FedAvg acc");
  for (std::size_t r = 0; r < rounds; ++r) {
    {
      const auto uploads = fifl_sim.collect_uploads();
      const auto report = engine.process_round(uploads);
      fifl_sim.apply_gradient(report.global_gradient);
    }
    fedavg_sim.apply_round(fedavg_sim.collect_uploads());
    if ((r + 1) % 5 == 0) {
      const double fedavg_acc = fedavg_sim.model_crashed()
                                    ? -1.0
                                    : fedavg_sim.evaluate().accuracy;
      std::printf("%-7zu %-12.3f %s\n", r + 1, fifl_sim.evaluate().accuracy,
                  fedavg_acc < 0 ? "CRASHED (NaN)"
                                 : util::format_double(fedavg_acc, 3).c_str());
    }
  }

  util::Table table(
      {"worker", "behaviour", "reputation", "cum. reward", "last servers"});
  for (std::size_t i = 0; i < fifl_sim.worker_count(); ++i) {
    const auto id = static_cast<chain::NodeId>(i);
    const bool serving =
        std::find(engine.server_members().begin(), engine.server_members().end(),
                  id) != engine.server_members().end();
    table.add_row({std::to_string(i), fifl_sim.worker(i).behaviour().name(),
                   util::format_double(engine.reputation().reputation(id), 3),
                   util::format_double(engine.cumulative().total(i), 3),
                   serving ? "yes" : ""});
  }
  std::printf("\n%s", table.to_text().c_str());

  std::printf("\naudit chain: %zu blocks, %s; blacklisted servers: %zu\n",
              engine.ledger().block_count(),
              engine.ledger().verify_chain() ? "VALID" : "BROKEN",
              engine.selector().blacklisted().size());
  return 0;
}
