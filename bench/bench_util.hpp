// Shared plumbing for the figure-reproduction benches: a federation
// builder over the synthetic datasets, series collection, and uniform
// reporting (aligned table to stdout + CSV + a structured BENCH_*.json
// per run, so CI can track the perf trajectory).
//
// Every bench accepts environment overrides so a quick smoke run and a
// full-fidelity run use the same binary:
//   FIFL_BENCH_ROUNDS  — override the round count
//   FIFL_BENCH_SCALE   — multiply worker-shard sizes (default 1.0)
//   FIFL_BENCH_OUTDIR  — directory for CSV/JSON artifacts (created if
//                        missing; default: the working directory), so CI
//                        can collect outputs from one place
//   FIFL_TRACE_OUT     — stream per-round JSONL traces to this path
//                        (handled by core::FederatedTrainer)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <limits>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fifl.hpp"
#include "data/synthetic.hpp"
#include "fl/simulator.hpp"
#include "nn/models.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace fifl::bench {

inline std::size_t env_rounds(std::size_t fallback) {
  return static_cast<std::size_t>(util::env_int("FIFL_BENCH_ROUNDS",
                                                static_cast<std::int64_t>(fallback)));
}

inline double env_scale() { return util::env_double("FIFL_BENCH_SCALE", 1.0); }

inline std::size_t scaled(std::size_t n) {
  return static_cast<std::size_t>(static_cast<double>(n) * env_scale());
}

/// Artifact directory from FIFL_BENCH_OUTDIR (default "."), created on
/// first use so CI can point every bench at one collection point.
inline std::filesystem::path output_dir() {
  const std::filesystem::path dir(util::env_string("FIFL_BENCH_OUTDIR", "."));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; write errors surface later
  return dir;
}

/// Static-init time — effectively program start for the single-TU bench
/// binaries (an inline variable, so the clock starts before main, not at
/// first use).
inline const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

// ---------------------------------------------------------------------------
// Kernel-layer speedup instrumentation (micro_detection_cost,
// micro_incentive_cost, micro_tensor_kernels).
//
// serial_* are the pre-kernel-layer reference loops: ONE serial double
// accumulator in index order, exactly what tensor::dot/squared_distance
// compiled to before the SIMD kernel layer. FP addition cannot be
// reassociated by the compiler (no -ffast-math anywhere in this tree), so
// these stay genuinely serial and latency-bound — the speedup_vs_serial
// counters therefore measure "this PR's kernels vs the code they
// replaced", not lane-kernel vs lane-kernel.

inline double serial_dot(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

inline double serial_squared_distance(const float* a, const float* b,
                                      std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

/// Process-CPU seconds spent in one window of `f` repetitions.
template <typename F>
inline double cpu_seconds_window(F& f, std::size_t reps) {
  timespec t0{}, t1{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t0);
  for (std::size_t r = 0; r < reps; ++r) {
    f();
  }
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t1);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) +
         1e-9 * static_cast<double>(t1.tv_nsec - t0.tv_nsec);
}

/// min-seconds(slow) / min-seconds(fast), each the minimum per-call time
/// over nine >=50ms trial windows, with the trials INTERLEAVED. Three
/// defences against a shared/contended bench host, in order: CPU time
/// (not wall time) so scheduler steal never counts; min-of-trials because
/// noise only ever inflates a window, never deflates it; interleaving so
/// a frequency dip or noisy neighbour hits both sides' trial sets
/// symmetrically instead of biasing whichever happened to run second.
/// Used for counter-grade comparisons next to google-benchmark's own
/// (primary, also CPU-time-based) timing loop.
template <typename FFast, typename FSlow>
inline double speedup_vs(FFast&& fast, FSlow&& slow) {
  fast();
  slow();
  std::size_t fast_reps = 1, slow_reps = 1;
  while (cpu_seconds_window(fast, fast_reps) < 50e-3) fast_reps *= 4;
  while (cpu_seconds_window(slow, slow_reps) < 50e-3) slow_reps *= 4;
  double fast_best = std::numeric_limits<double>::infinity();
  double slow_best = fast_best;
  for (int trial = 0; trial < 9; ++trial) {
    fast_best = std::min(fast_best, cpu_seconds_window(fast, fast_reps) /
                                        static_cast<double>(fast_reps));
    slow_best = std::min(slow_best, cpu_seconds_window(slow, slow_reps) /
                                        static_cast<double>(slow_reps));
  }
  return slow_best / fast_best;
}

/// `measure()` run once per `leg` for the life of the process. Google
/// Benchmark calls a benchmark body again for every iteration-count probe,
/// and a speedup counter does not depend on the probe, so re-measuring it
/// (speedup_vs takes >= 0.9 s) on each call only burns wall clock. Bench
/// bodies run on the main thread, so the cache needs no lock.
template <typename Measure>
inline double once_per_leg(const std::string& leg, Measure&& measure) {
  static std::map<std::string, double> measured;
  const auto it = measured.find(leg);
  if (it != measured.end()) return it->second;
  return measured.emplace(leg, measure()).first->second;
}

/// The two model/data stacks of the paper's Sec. 5.3 experiments.
enum class Stack { kLenetMnist, kResnetCifar };

struct FederationSpec {
  Stack stack = Stack::kLenetMnist;
  std::size_t workers = 10;
  std::size_t samples_per_worker = 400;
  std::size_t test_samples = 600;
  std::size_t batch_size = 32;
  double learning_rate = 0.05;
  std::uint64_t seed = 2021;
  /// Optional dataset-hardness overrides (<0 keeps the stack's default).
  /// Raising noise/overlap slows convergence, which some figures need so
  /// the gradient signal stays alive over the full horizon.
  double data_noise = -1.0;
  double class_overlap = -1.0;
};

struct Federation {
  std::unique_ptr<fl::Simulator> sim;
  std::size_t parameter_count = 0;
};

/// Builds a simulator over the requested stack; `behaviours` defines the
/// worker mix (size must equal spec.workers).
inline Federation make_federation(const FederationSpec& spec,
                                  std::vector<fl::BehaviourPtr> behaviours) {
  data::SyntheticSpec data_spec =
      spec.stack == Stack::kLenetMnist
          ? data::mnist_like(spec.workers * scaled(spec.samples_per_worker),
                             spec.seed)
          : data::cifar_like(spec.workers * scaled(spec.samples_per_worker),
                             spec.seed);
  if (spec.data_noise >= 0.0) data_spec.noise = spec.data_noise;
  if (spec.class_overlap >= 0.0) data_spec.class_overlap = spec.class_overlap;
  auto split = data::make_synthetic_split(data_spec, spec.test_samples);

  fl::ModelFactory factory;
  if (spec.stack == Stack::kLenetMnist) {
    factory = [](util::Rng& rng) {
      return nn::make_lenet({.channels = 1, .image_size = 28, .classes = 10}, rng);
    };
  } else {
    factory = [](util::Rng& rng) {
      return nn::make_mini_resnet({.channels = 3, .image_size = 32, .classes = 10},
                                  rng);
    };
  }

  fl::SimulatorConfig sim_cfg;
  sim_cfg.batch_size = spec.batch_size;
  sim_cfg.learning_rate = spec.learning_rate;
  sim_cfg.global_learning_rate = spec.learning_rate;
  sim_cfg.seed = spec.seed;

  util::Rng rng(spec.seed ^ 0x5eedull);
  Federation fed;
  fed.sim = std::make_unique<fl::Simulator>(
      sim_cfg, factory,
      fl::make_worker_setups(split.train, std::move(behaviours), rng),
      split.test);
  fed.parameter_count = fed.sim->parameter_count();
  return fed;
}

inline std::vector<fl::BehaviourPtr> honest_behaviours(std::size_t n) {
  std::vector<fl::BehaviourPtr> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<fl::HonestBehaviour>());
  }
  return out;
}

/// BENCH_<base>.json: run config, wall time, per-column series checksums
/// (FNV-1a over the column's cells — a cheap regression fingerprint), and
/// the full metrics-registry snapshot (phase histograms, counters). This
/// is the machine-readable artifact that anchors the perf trajectory.
inline void write_bench_json(const std::string& base, const std::string& title,
                             const util::Table& table,
                             const std::string& csv_name) {
  const std::filesystem::path path = output_dir() / ("BENCH_" + base + ".json");
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value(base);
  w.key("title").value(title);
  w.key("config").begin_object();
  w.key("rounds_env").value(util::env_int("FIFL_BENCH_ROUNDS", -1));
  w.key("scale").value(env_scale());
  w.end_object();
  w.key("wall_seconds")
      .value(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           g_process_start)
                 .count());
  w.key("table").begin_object();
  w.key("csv").value(csv_name);
  w.key("rows").value(static_cast<std::uint64_t>(table.rows()));
  w.key("cols").value(static_cast<std::uint64_t>(table.cols()));
  w.key("checksum").value(obs::fnv1a64_hex(table.to_csv()));
  w.key("series").begin_object();
  for (std::size_t c = 0; c < table.cols(); ++c) {
    std::string column;
    for (const auto& row : table.data()) {
      if (c < row.size()) {
        column += row[c];
        column.push_back('\n');
      }
    }
    w.key(table.headers()[c]).value(obs::fnv1a64_hex(column));
  }
  w.end_object();
  w.end_object();
  w.key("metrics").raw(obs::MetricsRegistry::global().snapshot().to_json());
  w.end_object();

  std::ofstream out(path);
  if (out) {
    out << w.str() << '\n';
    std::printf("(bench json written to %s)\n", path.string().c_str());
  } else {
    std::printf("(could not write %s)\n", path.string().c_str());
  }
}

/// Print the table, drop the CSV into output_dir(), and emit the
/// structured BENCH_<name>.json alongside it.
inline void report(const std::string& title, const util::Table& table,
                   const std::string& csv_name) {
  std::printf("\n== %s ==\n", title.c_str());
  table.print(std::cout);
  const std::filesystem::path csv_path = output_dir() / csv_name;
  try {
    table.write_csv(csv_path.string());
    std::printf("(series written to %s)\n", csv_path.string().c_str());
  } catch (const std::exception& e) {
    std::printf("(could not write %s: %s)\n", csv_path.string().c_str(),
                e.what());
  }
  write_bench_json(std::filesystem::path(csv_name).stem().string(), title,
                   table, csv_name);
}

/// Banner stating what the paper reports for this figure so the console
/// output reads as a paper-vs-measured comparison.
inline void paper_note(const std::string& text) {
  std::printf("paper: %s\n", text.c_str());
}

}  // namespace fifl::bench
