// RAII wall-clock timing that feeds obs::Histogram: ScopedTimer times a
// scope into a histogram handle you already hold (the hot-path form: zero
// lookups, one steady_clock read at each end). It records milliseconds,
// matching the *_ms histogram convention.
#pragma once

#include <chrono>

#include "obs/metrics.hpp"

namespace fifl::obs {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink) noexcept
      : sink_(&sink), start_(clock::now()) {}
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(clock::now() - start_)
        .count();
  }

  /// Records the elapsed time now and detaches (idempotent). Returns the
  /// recorded duration in ms — callers that also want the value (e.g. to
  /// store in a RoundReport) use this instead of timing twice.
  double stop() noexcept {
    const double ms = elapsed_ms();
    if (sink_) {
      sink_->observe(ms);
      sink_ = nullptr;
    }
    return ms;
  }

 private:
  using clock = std::chrono::steady_clock;
  Histogram* sink_;
  clock::time_point start_;
};

}  // namespace fifl::obs
