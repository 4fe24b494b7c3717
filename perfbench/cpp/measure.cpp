#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q outside (0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank, 1-based; the small epsilon keeps q·n that is integral in
  // exact arithmetic (0.9·100) from rounding up to the next rank.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return Percentile{samples[rank - 1], n - rank};
}

std::size_t min_samples_for(double q) {
  std::size_t n = kTailSamples;
  while (percentile(std::vector<double>(n, 0.0), q).beyond < kTailSamples) ++n;
  return n;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

template <typename Entries>
const auto* find_entry(const Entries& entries, std::string_view name) {
  for (const auto& entry : entries) {
    if (entry.first == name) return &entry.second;
  }
  return static_cast<decltype(&entries.front().second)>(nullptr);
}

[[noreturn]] void missing(std::string_view what, std::string_view name) {
  throw std::runtime_error(std::string(what) + " '" + std::string(name) +
                           "' missing from the later snapshot");
}

[[noreturn]] void went_backwards(std::string_view name) {
  throw std::runtime_error("instrument '" + std::string(name) +
                           "' went backwards between snapshots (reset?)");
}

}  // namespace

std::uint64_t counter_delta(const fifl::obs::MetricsSnapshot& before,
                            const fifl::obs::MetricsSnapshot& after,
                            std::string_view name) {
  const std::uint64_t* end = find_entry(after.counters, name);
  if (!end) missing("counter", name);
  const std::uint64_t* start = find_entry(before.counters, name);
  const std::uint64_t base = start ? *start : 0;
  if (*end < base) went_backwards(name);
  return *end - base;
}

HistogramDelta histogram_delta(const fifl::obs::MetricsSnapshot& before,
                               const fifl::obs::MetricsSnapshot& after,
                               std::string_view name) {
  const auto* end = find_entry(after.histograms, name);
  if (!end) missing("histogram", name);
  const auto* start = find_entry(before.histograms, name);
  HistogramDelta delta{end->count, end->sum};
  if (start) {
    if (end->count < start->count) went_backwards(name);
    delta.count -= start->count;
    delta.sum -= start->sum;
  }
  return delta;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  Usage u;
  u.user_ms = ms(ru.ru_utime);
  u.sys_ms = ms(ru.ru_stime);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t SpanLog::add(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  std::lock_guard lock(mutex_);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "\",\"round\":%llu,\"start_ms\":%.6f,\"end_ms\":%.6f,"
                  "\"parent\":%lld}\n",
                  static_cast<unsigned long long>(s.round), s.start_ms,
                  s.end_ms, static_cast<long long>(s.parent));
    out << "{\"name\":\"" << s.name << line;
  }
  if (!out) throw std::runtime_error("short write to span log " + path);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      throw std::invalid_argument("self_times: parent index out of range");
    }
    children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                              s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = 0.0;
    bool open = false;
    for (const auto& [start, end] : kids) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = spans[i].duration_ms() - covered;
  }
  return self;
}

}  // namespace perfbench
