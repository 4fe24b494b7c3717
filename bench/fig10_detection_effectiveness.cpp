// Figure 10 (Sec. 5.3.1): the attack detection module keeps the model
// alive under a high-intensity attack. Two identical federations with 3
// strong sign-flippers among 10 workers: one aggregates with FIFL's
// detection mask, the other with plain FedAvg. The detected run keeps
// training; the undetected run collapses (or crashes to NaN).
#include "bench_util.hpp"

namespace {

using namespace fifl;

struct Series {
  std::vector<double> acc;
  std::vector<double> loss;
};

Series run(bool with_detection, std::size_t rounds, std::size_t eval_every,
           bench::Stack stack) {
  bench::FederationSpec spec;
  spec.stack = stack;
  spec.workers = stack == bench::Stack::kLenetMnist ? 10 : 6;
  spec.samples_per_worker = stack == bench::Stack::kLenetMnist ? 400 : 250;
  spec.test_samples = stack == bench::Stack::kLenetMnist ? 600 : 300;
  auto behaviours = bench::honest_behaviours(spec.workers - 3);
  for (int i = 0; i < 3; ++i) {
    behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(8.0));
  }
  auto fed = bench::make_federation(spec, std::move(behaviours));

  core::FiflConfig engine_cfg;
  engine_cfg.servers = 2;
  engine_cfg.record_to_ledger = false;
  core::FiflEngine engine(engine_cfg, fed.sim->worker_count(),
                          fed.parameter_count);

  Series out;
  const auto first = fed.sim->evaluate();
  out.acc.push_back(first.accuracy);
  out.loss.push_back(first.loss);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto uploads = fed.sim->collect_uploads();
    if (with_detection) {
      const auto report = engine.process_round(uploads);
      fed.sim->apply_gradient(report.global_gradient);
    } else {
      fed.sim->apply_round(uploads);
    }
    if ((r + 1) % eval_every == 0) {
      const auto eval = fed.sim->evaluate();
      out.acc.push_back(eval.accuracy);
      out.loss.push_back(eval.loss);
    }
  }
  return out;
}

void print_pair(const char* title, const Series& with, const Series& without,
                std::size_t eval_every, const char* csv) {
  util::Table table({"round", "ACC with detection", "ACC without",
                     "loss with detection", "loss without"});
  for (std::size_t e = 0; e < with.acc.size(); ++e) {
    table.add_row({std::to_string(e * eval_every),
                   util::format_double(with.acc[e], 3),
                   util::format_double(without.acc[e], 3),
                   util::format_double(with.loss[e], 3),
                   util::format_double(without.loss[e], 3)});
  }
  bench::report(title, table, csv);
  std::printf("  ACC with detection    %s\n",
              util::sparkline(with.acc).c_str());
  std::printf("  ACC without detection %s\n",
              util::sparkline(without.acc).c_str());
}

}  // namespace

int main() {
  using namespace fifl;
  const std::size_t mnist_rounds = bench::env_rounds(24);
  const std::size_t eval_every = 3;

  bench::paper_note(
      "Fig 10: with the detection module the model keeps high performance; "
      "without it the model collapses under high-intensity attacks.");

  const Series mnist_with = run(true, mnist_rounds, eval_every,
                                bench::Stack::kLenetMnist);
  const Series mnist_without = run(false, mnist_rounds, eval_every,
                                   bench::Stack::kLenetMnist);
  print_pair("Figure 10 (MNIST-S/LeNet): detection on vs off", mnist_with,
             mnist_without, eval_every, "fig10_mnist.csv");

  const std::size_t cifar_rounds = std::max<std::size_t>(6, mnist_rounds / 2);
  const Series cifar_with = run(true, cifar_rounds, eval_every,
                                bench::Stack::kResnetCifar);
  const Series cifar_without = run(false, cifar_rounds, eval_every,
                                   bench::Stack::kResnetCifar);
  print_pair("Figure 10 (CIFAR-S/MiniResNet): detection on vs off", cifar_with,
             cifar_without, eval_every, "fig10_cifar.csv");
  return 0;
}
