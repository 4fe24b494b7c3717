// Measurement helpers shared by the benchmark workloads: the percentile
// reporting rule, differencing of metrics-registry snapshots, process
// resource usage, and the in-memory span log with self-time accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

// ---- statistics ------------------------------------------------------------

/// A reported percentile needs at least this many samples above it.
inline constexpr std::size_t kTailSamples = 10;

struct Percentile {
  double value = 0.0;
  /// Samples ranked strictly above the percentile's own rank.
  std::size_t beyond = 0;
  bool meets_rule() const noexcept { return beyond >= kTailSamples; }
};

/// Nearest-rank percentile, q in (0, 1]: the ceil(q·n)-th smallest sample.
/// Throws std::invalid_argument on an empty sample set or q outside (0, 1].
Percentile percentile(std::vector<double> samples, double q);

/// Smallest sample count at which percentile q has kTailSamples above it.
std::size_t min_samples_for(double q);

/// Median (mean of the two middle samples for an even count).
double median(std::vector<double> samples);

// ---- metrics-registry snapshot differencing --------------------------------

struct HistogramDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// after − before for a counter. An instrument missing from `before` counts
/// from zero; one missing from `after`, or a counter that went backwards
/// (a registry reset between the snapshots), throws std::runtime_error.
std::uint64_t counter_delta(const fifl::obs::MetricsSnapshot& before,
                            const fifl::obs::MetricsSnapshot& after,
                            std::string_view name);

/// Observation count and sum added to a histogram between the snapshots,
/// with the same rules as counter_delta.
HistogramDelta histogram_delta(const fifl::obs::MetricsSnapshot& before,
                               const fifl::obs::MetricsSnapshot& after,
                               std::string_view name);

// ---- process resource usage ------------------------------------------------

struct Usage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  std::uint64_t minor_faults = 0;
  double max_rss_mb = 0.0;  // high-water mark since process start
  double cpu_ms() const noexcept { return user_ms + sys_ms; }
};

Usage usage_now();

/// Milliseconds on the steady clock since an arbitrary fixed origin.
double now_ms();

// ---- spans -----------------------------------------------------------------

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  std::string name;
  std::uint64_t round = 0;  // spans of one round share this id
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int64_t parent = kNoParent;  // index into the log, or kNoParent
  double duration_ms() const noexcept { return end_ms - start_ms; }
};

/// Spans kept in memory for the whole run and written out once at the
/// end. add() is thread-safe so transport threads can record into it.
class SpanLog {
 public:
  /// Returns the new span's index (its id for children's `parent`).
  std::int64_t add(Span span);
  std::vector<Span> spans() const;
  /// One JSON object per line: name, round, start_ms, end_ms, parent.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the length of the union of
/// its direct children's intervals. Children are not clipped to the
/// parent, so along a chain of non-overlapping children the self times of
/// a span and all its descendants add up to the span's duration exactly.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
