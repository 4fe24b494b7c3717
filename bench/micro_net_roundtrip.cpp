// fifl::net hot-path costs: frame encode/decode and a full message
// round trip over the loopback and TCP transports. Running this bench
// also exercises the net.bytes_tx/rx, net.msgs_tx/rx, and net.rtt_ms
// instruments, so they land in BENCH_micro_net_roundtrip.json alongside
// the latency numbers.
#include <benchmark/benchmark.h>

#include "net/crc32_backends.hpp"
#include "net/frame.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace {

using namespace fifl::net;

std::vector<std::uint8_t> random_payload(std::size_t size) {
  fifl::util::Rng rng(42);
  std::vector<std::uint8_t> payload(size);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
  }
  return payload;
}

GradientUploadMsg upload_msg(std::size_t gradient_size) {
  fifl::util::Rng rng(7);
  GradientUploadMsg msg;
  msg.round = 1;
  msg.worker = 3;
  msg.samples = 120;
  msg.gradient.resize(gradient_size);
  for (auto& g : msg.gradient) g = static_cast<float>(rng.gaussian());
  return msg;
}

void BM_FrameEncode(benchmark::State& state) {
  const auto payload = random_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_frame(5, 1, payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameEncode)->Arg(64)->Arg(4096)->Arg(262144);

void BM_FrameDecode(benchmark::State& state) {
  const auto payload = random_payload(static_cast<std::size_t>(state.range(0)));
  const auto wire = encode_frame(5, 1, payload);
  for (auto _ : state) {
    FrameDecoder decoder;
    decoder.feed(wire);
    benchmark::DoNotOptimize(decoder.next());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameDecode)->Arg(64)->Arg(4096)->Arg(262144);

// One CRC-32 of range(0) bytes — up to θ's width in cluster_tcp
// (279,880 B, a broadcast or upload frame) and 1 MiB — through the backend
// range(1) names: 0 = slicing-by-16 table, 1 = carry-less multiply. The
// label names the backend; the carry-less leg reports an error where the
// build or the CPU lacks it. `crc32()` itself runs the selected backend.
void BM_Crc32(benchmark::State& state) {
  const bool clmul = state.range(1) != 0;
  const detail::Crc32Fn fn =
      clmul ? detail::clmul_crc32() : &detail::crc32_table;
  if (clmul && (fn == nullptr || !detail::cpu_supports_clmul())) {
    state.SkipWithError("no PCLMULQDQ in this build or CPU");
    return;
  }
  const auto payload = random_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(payload, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(detail::crc32_name(fn));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{4096, 279880, 1048576}, {0, 1}});

/// One send + one matching recv of a LeNet-sized gradient upload.
template <typename TransportT>
void roundtrip_bench(benchmark::State& state) {
  TransportT transport;
  auto a = transport.open(1);
  auto b = transport.open(2);
  const auto msg = upload_msg(static_cast<std::size_t>(state.range(0)));
  const auto payload = encode_payload(msg);
  for (auto _ : state) {
    a->send(2, MessageType::kGradientUpload, payload);
    auto env = b->recv(std::chrono::milliseconds(10000));
    if (!env) {
      state.SkipWithError("recv timed out");
      break;
    }
    benchmark::DoNotOptimize(env->payload.size());
  }
  a->close();
  b->close();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}

void BM_LoopbackRoundTrip(benchmark::State& state) {
  roundtrip_bench<LoopbackTransport>(state);
}
BENCHMARK(BM_LoopbackRoundTrip)->Arg(1210)->Arg(61706);

void BM_TcpRoundTrip(benchmark::State& state) {
  roundtrip_bench<TcpTransport>(state);
}
BENCHMARK(BM_TcpRoundTrip)->Arg(1210)->Arg(61706);

/// Heartbeat ping/pong over TCP, feeding the net.rtt_ms histogram the
/// same way WorkerNode does.
void BM_TcpHeartbeatRtt(benchmark::State& state) {
  TcpTransport transport;
  auto a = transport.open(1);
  auto b = transport.open(2);
  std::uint64_t token = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    a->send_msg(2, HeartbeatMsg{1, token, 0});
    auto ping = b->recv(std::chrono::milliseconds(10000));
    if (!ping) {
      state.SkipWithError("ping lost");
      break;
    }
    b->send_msg(1, HeartbeatMsg{2, token, 1});
    auto pong = a->recv(std::chrono::milliseconds(10000));
    if (!pong) {
      state.SkipWithError("pong lost");
      break;
    }
    NetMetrics::global().rtt_ms->observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
    ++token;
  }
  a->close();
  b->close();
}
BENCHMARK(BM_TcpHeartbeatRtt);

}  // namespace
