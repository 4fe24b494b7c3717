// Overhead of the fifl::obs instrumentation itself — the numbers that
// justify leaving it compiled into the hot path. Expectations on this
// class of hardware:
//   counter increment      < 50 ns (one relaxed fetch_add)
//   histogram observe      ~ tens of ns (binary search + 4 atomics)
//   ScopedTimer            ~ 2 steady_clock reads
//   disabled trace check   ~ 1 branch (the FIFL_TRACE_OUT-unset case)
//   wire-span emit         ~ 2 clock reads + 1 locked vector append
//   disabled tracer check  ~ 1 branch (the FIFL_TRACE_DIR-unset case:
//                            no allocation, no clock read — the guard
//                            skips even building the SpanRecord)
//   flight-ring note       ~ 1 fetch_add + 7 relaxed stores (wait-free)
#include <benchmark/benchmark.h>

#include "net/tracing.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace {

using namespace fifl::obs;

void BM_CounterInc(benchmark::State& state) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("bench.counter");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterInc);

void BM_CounterIncContended(benchmark::State& state) {
  static Counter counter;
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterIncContended)->Threads(4);

void BM_GaugeSet(benchmark::State& state) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("bench.gauge");
  double v = 0.0;
  for (auto _ : state) {
    gauge.set(v);
    v += 1.0;
  }
  benchmark::DoNotOptimize(gauge.value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("bench.hist_ms");
  double v = 0.0;
  for (auto _ : state) {
    hist.observe(v);
    v = v > 100.0 ? 0.0 : v + 0.37;  // sweep across buckets
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_ScopedTimer(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("bench.timer_ms");
  for (auto _ : state) {
    ScopedTimer timer(hist);
    benchmark::DoNotOptimize(&timer);
  }
}
BENCHMARK(BM_ScopedTimer);

void BM_TraceDisabledCheck(benchmark::State& state) {
  // The per-round cost of tracing when FIFL_TRACE_OUT is unset: the
  // producer checks enabled() and skips all assembly.
  RoundTraceRecorder& recorder = RoundTraceRecorder::global();
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    if (!recorder.enabled()) ++skipped;
    benchmark::DoNotOptimize(skipped);
  }
}
BENCHMARK(BM_TraceDisabledCheck);

void BM_WireSpanEmit(benchmark::State& state) {
  // One send-span through the real producer path: two trace-clock reads
  // bracketing the (here empty) work, span-id allocation, and the locked
  // append into a memory-only SpanBuffer — the per-message cost a traced
  // cluster run pays on every data-plane send.
  SpanBuffer buffer;
  const fifl::net::NodeTracer tracer{&buffer, nullptr, 3};
  std::uint64_t round = 0;
  for (auto _ : state) {
    const TraceContext ctx{fifl::net::round_trace_id(round),
                           fifl::net::next_span_id(tracer.node), 0};
    const std::uint64_t t0 = fifl::net::trace_now_us();
    tracer.span(SpanKind::kSend, "gradient_upload", round, t0,
                fifl::net::trace_now_us() - t0, ctx, 7);
    ++round;
  }
  benchmark::DoNotOptimize(buffer.size());
}
BENCHMARK(BM_WireSpanEmit);

void BM_WireSpanDisabledCheck(benchmark::State& state) {
  // The FIFL_TRACE_DIR-unset path every producer site pays: a cached
  // null pointer check, nothing else. No SpanRecord is built, no span id
  // is allocated, and crucially no clock is read — the guard sits before
  // both trace_now_us() calls, so an untraced run's timing behaviour is
  // exactly the pre-tracing binary's.
  const fifl::net::NodeTracer tracer{};
  if (tracer.tracing()) state.SkipWithError("tracer must start disabled");
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    if (!tracer.tracing()) ++skipped;
    benchmark::DoNotOptimize(skipped);
  }
}
BENCHMARK(BM_WireSpanDisabledCheck);

void BM_FlightRingNote(benchmark::State& state) {
  // The wait-free flight-recorder append (slot claim + relaxed stores);
  // runs contended at 4 threads to show writers never block each other.
  static FlightRing ring;
  std::uint64_t i = 0;
  for (auto _ : state) {
    ring.note(FlightEventKind::kSend, 3, 2, i, i);
    ++i;
  }
  benchmark::DoNotOptimize(ring.total_noted());
}
BENCHMARK(BM_FlightRingNote);
BENCHMARK(BM_FlightRingNote)->Threads(4);

void BM_TraceSerialize(benchmark::State& state) {
  // Serialization cost of one round's trace at N workers (memory-only
  // recorder — no filesystem in the loop).
  const auto workers = static_cast<std::size_t>(state.range(0));
  RoundTrace trace;
  trace.round = 41;
  trace.fairness = 0.93;
  trace.evaluated = true;
  trace.eval_loss = 1.31;
  trace.eval_accuracy = 0.62;
  trace.phases = {12.5, 0.02, 0.9, 0.4, 0.8};
  for (std::size_t i = 0; i < workers; ++i) {
    trace.workers.push_back({i, true, true, false, 0.87, 0.5, 0.1, 0.05});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.to_jsonl());
  }
}
BENCHMARK(BM_TraceSerialize)->Arg(10)->Arg(100);

void BM_SnapshotToJson(benchmark::State& state) {
  MetricsRegistry registry;
  for (int i = 0; i < 20; ++i) {
    registry.counter("bench.c" + std::to_string(i)).inc();
    registry.histogram("bench.h" + std::to_string(i)).observe(1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot().to_json());
  }
}
BENCHMARK(BM_SnapshotToJson);

}  // namespace
