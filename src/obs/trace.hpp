// Round-trace telemetry: one structured record per federated round,
// streamed as JSONL. This is the single source of truth the figure
// benches read (reputation / contribution / reward series) instead of
// hand-collecting vectors, and what an operator tails to watch a live
// training run.
//
// Wiring: core::FederatedTrainer assembles a RoundTrace each round from
// the simulator's phase timings and the engine's RoundReport and hands
// it to a RoundTraceRecorder. The process-global recorder is enabled by
// setting FIFL_TRACE_OUT=<path> ("-" for stdout); when the variable is
// unset the global recorder is disabled and the producer side skips all
// work (one branch per round — tracing is compiled in but free).
//
// JSONL schema (one object per line; numbers are JSON numbers, NaN
// serializes as null):
//   {"round":0,"degraded":false,"fairness":0.98,
//    "eval":{"loss":1.2,"accuracy":0.41} | null,
//    "phases_ms":{"local_train":12.3,"channel":0.1,"detect":0.9,
//                 "aggregate":0.4,"ledger":0.7},
//    "workers":[{"id":0,"arrived":true,"accepted":true,"uncertain":false,
//                "detection_score":0.93,"reputation":0.5,
//                "contribution":0.1,"reward":0.05}, ...]}
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace fifl::obs {

struct WorkerTrace {
  std::uint64_t id = 0;
  bool arrived = true;
  bool accepted = false;
  bool uncertain = false;
  double detection_score = 0.0;  // NaN when absent/degraded => null in JSON
  double reputation = 0.0;
  double contribution = 0.0;
  double reward = 0.0;
};

struct RoundTrace {
  std::uint64_t round = 0;
  bool degraded = false;
  double fairness = 0.0;
  bool evaluated = false;
  double eval_loss = 0.0;      // valid iff evaluated
  double eval_accuracy = 0.0;  // valid iff evaluated
  struct Phases {
    double local_train_ms = 0.0;
    double channel_ms = 0.0;
    double detect_ms = 0.0;
    double aggregate_ms = 0.0;
    double ledger_ms = 0.0;
  } phases;
  std::vector<WorkerTrace> workers;
  /// Per-round transport activity, filled only by networked (fifl::net)
  /// runs: counter deltas over the round plus the rtt observations so
  /// far. Serialized as a "net" object when has_net is set; in-process
  /// traces keep the seed schema unchanged (no "net" key).
  struct NetStats {
    std::uint64_t bytes_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t msgs_tx = 0;
    std::uint64_t msgs_rx = 0;
    std::uint64_t frame_errors = 0;
    // Degradation deltas.
    std::uint64_t late_uploads = 0;
    std::uint64_t send_retries = 0;
    std::uint64_t dropped_workers = 0;
    // Per-message-type byte deltas (counter name suffix -> bytes, e.g.
    // "gradient_upload" -> 12345), nonzero entries only, in wire-tag
    // order. Serialized as nested "bytes_tx_by_type"/"bytes_rx_by_type"
    // objects, omitted when empty (decode -> empty).
    std::vector<std::pair<std::string, std::uint64_t>> bytes_tx_by_type;
    std::vector<std::pair<std::string, std::uint64_t>> bytes_rx_by_type;
  } net;
  bool has_net = false;

  /// One JSONL line (no trailing newline).
  std::string to_jsonl() const;
  /// Inverse of to_jsonl(); throws std::runtime_error on malformed input.
  static RoundTrace from_jsonl(std::string_view line);
};

class RoundTraceRecorder {
 public:
  /// Memory-only recorder (enabled, no sink) — what benches use to derive
  /// series without touching the filesystem.
  RoundTraceRecorder() = default;
  /// Streams each record to `path` as JSONL (and keeps it in memory).
  /// "" = memory-only; "-" = stdout. Throws on unwritable paths.
  explicit RoundTraceRecorder(const std::string& path);

  /// Producers must check this before building a RoundTrace so a disabled
  /// recorder costs one branch per round.
  bool enabled() const noexcept { return enabled_; }

  /// Thread-safe append; flushes the sink per record so a crashed run
  /// keeps its trace. No-op when disabled.
  void record(const RoundTrace& trace);

  std::size_t size() const;
  /// In-memory traces, in record order. Not synchronized with concurrent
  /// record() calls — read after the run.
  const std::vector<RoundTrace>& traces() const noexcept
      FIFL_NO_THREAD_SAFETY_ANALYSIS {
    // fifl-lint: allow(guarded-by) -- documented read-after-run accessor: callers read the traces once producers have stopped
    return traces_;
  }

  /// Parses a JSONL trace file back into records (round-trip path).
  static std::vector<RoundTrace> read_jsonl_file(const std::string& path);

  /// Process-global recorder configured from FIFL_TRACE_OUT; disabled
  /// (enabled() == false) when the variable is unset or empty.
  static RoundTraceRecorder& global();

 private:
  struct DisabledTag {};
  explicit RoundTraceRecorder(DisabledTag) : enabled_(false) {}

  bool enabled_ = true;       // set in the ctor, immutable afterwards
  bool to_stdout_ = false;    // likewise
  // `out_` stays off the lint `guards` list (opened in the ctor before
  // the recorder is shared); see SpanBuffer for the same pattern.
  // lock-order: round_trace; guards traces_
  mutable util::Mutex mutex_;
  std::vector<RoundTrace> traces_ FIFL_GUARDED_BY(mutex_);
  std::ofstream out_ FIFL_GUARDED_BY(mutex_);  // open iff path-constructed
};

}  // namespace fifl::obs
