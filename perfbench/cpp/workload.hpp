// What every workload shares: its options, the report it fills in, and
// the probes and summaries more than one workload uses.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain/ledger.hpp"
#include "core/fifl.hpp"
#include "measure.hpp"
#include "nn/sequential.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Few rounds, for the self-test: every metric is still emitted, but
  /// the round_ms_p90 sample-count rule cannot be met.
  bool smoke = false;
  /// Where the traced run writes its span log.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;     // "higher" | "lower"
  std::string statistic;  // how the value was reduced from its samples
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

class Report {
 public:
  void metric(std::string name, double value, std::string unit,
              std::string better, std::string statistic);
  void check(std::string name, bool passed, std::string detail = {});
  /// Operations the run attempted, and how many of them failed (degraded
  /// or aborted rounds, unverified audits). Failed checks add to both.
  void operations(std::uint64_t attempted, std::uint64_t failed);
  /// Per-layer rows that add up to the row `total` (the traced mean round
  /// with its named remainder, or the setup time); printed and verified.
  void budget(std::string total, std::vector<std::string> parts);
  void note(std::string key, std::string value);

  bool correct() const;
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::vector<std::string>>> budgets_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Timed rounds for a workload: `nominal_rounds_per_s` × seconds, and never
/// fewer than round_ms_p90 needs. The count depends only on the options, so
/// every output that depends on it repeats exactly for a seed.
std::size_t timed_rounds(const Options& options, double nominal_rounds_per_s);

/// Per-round wall-time summary of the timed rounds: rounds_per_s,
/// round_ms_p50, round_ms_p90.
void report_round_times(Report& report, const std::vector<double>& round_ms);

/// honest_accept_rate / attacker_reject_rate over the kDetection records
/// of blocks [first_block, block_count), attackers by worker id.
void report_detection_rates(Report& report, const fifl::chain::Ledger& ledger,
                            std::size_t first_block,
                            const std::vector<bool>& attacker);

/// One setup repetition, split into consecutive parts (ms).
struct SetupTiming {
  std::vector<std::pair<std::string, double>> parts;
  double total_ms() const;
};

/// setup_s (trace 0) or the setup parts and their total (trace 1), from
/// the repetition with the median total. Every workload sets up three
/// times per run: a cold first setup that is only measured, then the ones
/// its passes use.
void report_setup(Report& report, const Options& options,
                  std::vector<SetupTiming> reps);

/// Layer-by-layer timing of a batch-32 SGD step of `model` (1×28×28
/// inputs, 10 classes) driven through Sequential::layer(i): mean of 10
/// steps, on a ThreadPool::global() task when `on_pool`, else on a plain
/// thread. Emits nn.* (conv rows read 0 for a model without convolutions)
/// and fl.worker_step_ms.
void report_step_probe(Report& report, fifl::nn::Sequential& model, bool on_pool,
                       std::uint64_t seed);

/// Isolated net::encode_payload / decode_payload timings at a gradient
/// width of `params` (the parameters of `model`).
void report_codec_probe(Report& report, fifl::nn::Sequential& model);

/// Untraced-pass resource rows: page faults, sys ms, pool busy share.
void report_usage_rows(Report& report, const Usage& before,
                       const Usage& after, double wall_ms,
                       std::size_t rounds);

/// Spans of one in-process round [start, end]: an optional local_train
/// child, then the engine's detect / aggregate / ledger, laid back to back
/// from `start` with the durations the program measured. The shadow
/// contribution and incentive calls on this round's inputs run now — after
/// the round, outside its span — and are placed under aggregate, whose own
/// time (aggregate_ms) includes those two steps. Returns whether the shadow
/// rewards equal the engine's.
bool record_round_spans(SpanLog& log, const fifl::core::FiflConfig& config,
                        const fifl::core::RoundReport& report,
                        std::span<const fifl::fl::Upload> uploads, double start,
                        double end, std::optional<double> local_train_ms);

/// The traced in-process round budget from the span log: per-layer self
/// times of the rounds from `first_round` on, the traced mean round, the
/// named remainder (the round span's own self time), and the tracing
/// overhead against the untraced mean round.
void report_round_budget(Report& report, const SpanLog& log,
                         std::uint64_t first_round, std::size_t rounds,
                         bool local_train, double untraced_round_ms);

/// chain.seal_ms (histogram delta), chain.records_per_round (ledger blocks
/// from `first_block`) and tensor.detect_gb_per_s (bytes detection read /
/// its time) over `rounds` timed rounds.
void report_ledger_rows(Report& report, const fifl::obs::MetricsSnapshot& start,
                        const fifl::obs::MetricsSnapshot& end,
                        const fifl::chain::Ledger& ledger, std::size_t first_block,
                        std::size_t rounds, double detect_bytes,
                        double detect_ms);

double mean(const std::vector<double>& values);

/// Runs `fn` and returns its wall time in ms.
double time_ms(const std::function<void()>& fn);

// The three workloads (one per translation unit).
Report run_lenet_train(const Options& options);
Report run_assess_wide(const Options& options);
Report run_cluster_tcp(const Options& options);

}  // namespace perfbench
