// Transport abstraction for fifl::net nodes.
//
// A Transport hands out Endpoints, one per node; an Endpoint sends typed
// payloads to peer node keys and receives Envelopes from a thread-safe
// inbox. Two implementations:
//   - LoopbackTransport: in-process queues. Deterministic per sender
//     (FIFO per inbox) and still exercises the full wire path — every
//     send round-trips through encode_frame/FrameDecoder, so frame bugs
//     show up in fast tests, not just under TCP.
//   - TcpTransport (tcp.hpp): real POSIX sockets on localhost.
//
// All endpoints of a cluster must be opened before traffic starts (the
// cluster harness does this); sending to a never-opened key throws.
//
// Every implementation reports into the global obs::MetricsRegistry:
// net.bytes_tx / net.bytes_rx / net.msgs_tx / net.msgs_rx counters and
// net.frame_errors for frames that failed to decode.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "net/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_annotations.hpp"

namespace fifl::net {

/// Logical node address within one cluster (workers 0..N-1, then servers).
using NodeKey = std::uint32_t;

struct Envelope {
  NodeKey from = 0;
  MessageType type = MessageType::kHeartbeat;
  std::vector<std::uint8_t> payload;
  /// Trace context carried by the frame's optional extension (has_trace
  /// false on messages from non-tracing peers).
  bool has_trace = false;
  obs::TraceContext trace;
};

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual NodeKey address() const noexcept = 0;

  /// Frames and delivers one message. Thread-safe. `trace` (nullable)
  /// rides in the frame's trace extension; passing nullptr — the
  /// tracing-disabled path — produces the legacy wire bytes.
  virtual void send(NodeKey to, MessageType type,
                    std::span<const std::uint8_t> payload,
                    const obs::TraceContext* trace = nullptr) = 0;

  /// Blocks up to `timeout` for the next inbound message; nullopt on
  /// timeout or after close().
  virtual std::optional<Envelope> recv(std::chrono::milliseconds timeout) = 0;

  /// Unblocks receivers and stops accepting traffic. Idempotent.
  virtual void close() = 0;

  /// Convenience: encode a message struct and send it under its tag.
  template <WireMessage Msg>
  void send_msg(NodeKey to, const Msg& msg,
                const obs::TraceContext* trace = nullptr) {
    send(to, Msg::kType, encode_payload(msg), trace);
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Creates the endpoint for `address`. Each address may be opened once.
  virtual std::unique_ptr<Endpoint> open(NodeKey address) = 0;
};

/// Counter/histogram handles shared by transport implementations and the
/// node event loops; resolved once against the global registry.
struct NetMetrics {
  obs::Counter* bytes_tx;
  obs::Counter* bytes_rx;
  /// Per-message-type wire bytes (frame header + payload), indexed by
  /// MessageType tag - 1; registered as net.bytes_tx.<type_name> /
  /// net.bytes_rx.<type_name> so they ride along in every metrics
  /// snapshot (BENCH_*.json) and per-round trace delta.
  std::array<obs::Counter*, kMessageTypeCount> bytes_tx_type;
  std::array<obs::Counter*, kMessageTypeCount> bytes_rx_type;
  obs::Counter* msgs_tx;
  obs::Counter* msgs_rx;
  obs::Counter* frame_errors;
  obs::Histogram* rtt_ms;
  /// Per-message-type handler latency (net.handle_ms.<type_name>) and
  /// lead round-phase latencies — deterministic fixed buckets, exported
  /// with p50/p90/p99 into every BENCH_*.json metrics snapshot.
  std::array<obs::Histogram*, kMessageTypeCount> handle_ms_type;
  obs::Histogram* phase_broadcast_ms;
  obs::Histogram* phase_collect_ms;
  obs::Histogram* phase_assess_ms;
  /// Replicated-ledger commit wait on the lead (propose -> vote quorum).
  obs::Histogram* phase_ledger_commit_ms;
  /// The executor's per-round θ digest after the assess phase (flatten +
  /// parameter_hash in ServerNode::record_round).
  obs::Histogram* phase_record_ms;
  // Fault-tolerance / degradation counters.
  obs::Counter* send_retries;     // TCP sends that needed a backoff retry
  obs::Counter* send_failures;    // sends abandoned after the retry budget
  obs::Counter* late_uploads;     // uploads that arrived after their round
  obs::Counter* dead_uploads;     // uploads rejected from dead workers
  obs::Counter* dropped_workers;  // workers declared dead by liveness
  obs::Counter* worker_rejoins;   // dead workers that came back
  obs::Counter* rounds_degraded;  // lead rounds that ran below full roster
  obs::Counter* slice_gaps;       // follower slices missing or incomplete
  obs::Counter* faults_injected;  // FaultyTransport events (tests/chaos)
  // Lead-failover counters and election latency.
  obs::Counter* view_changes;     // successful executor takeovers
  obs::Counter* server_rejoins;   // crashed servers resynced via ChainSync
  obs::Histogram* election_ms;    // lead-silence detection -> takeover

  /// Per-type counter for a raw frame tag; nullptr for tags outside the
  /// MessageType range (a peer speaking a newer protocol).
  obs::Counter* tx_for(std::uint8_t raw_type) noexcept {
    return raw_type >= 1 && raw_type <= kMessageTypeCount
               ? bytes_tx_type[raw_type - 1]
               : nullptr;
  }
  obs::Counter* rx_for(std::uint8_t raw_type) noexcept {
    return raw_type >= 1 && raw_type <= kMessageTypeCount
               ? bytes_rx_type[raw_type - 1]
               : nullptr;
  }
  obs::Histogram* handle_for(std::uint8_t raw_type) noexcept {
    return raw_type >= 1 && raw_type <= kMessageTypeCount
               ? handle_ms_type[raw_type - 1]
               : nullptr;
  }

  static NetMetrics& global();
};

/// Blocking MPSC queue used as the inbox of both transports.
class Inbox {
 public:
  /// Enqueues unless closed (drops silently after close, like a dead
  /// socket).
  void push(Envelope envelope);
  std::optional<Envelope> pop(std::chrono::milliseconds timeout);
  void close();

 private:
  // CV-paired, so this stays std::mutex (std::unique_lock is invisible to
  // Clang TSA); fifl-lint R7/R8 are the checkers for this pair.
  std::mutex mutex_;  // lock-order: inbox; guards queue_, closed_
  std::condition_variable cv_;  // lock-order: inbox
  std::deque<Envelope> queue_;
  bool closed_ = false;
};

class LoopbackTransport : public Transport {
 public:
  std::unique_ptr<Endpoint> open(NodeKey address) override;

  /// Implementation hook for LoopbackEndpoint::send; throws if `address`
  /// was never opened.
  std::shared_ptr<Inbox> inbox_for(NodeKey address);

 private:
  // lock-order: loopback_registry; guards inboxes_
  util::Mutex inboxes_mutex_;
  std::map<NodeKey, std::shared_ptr<Inbox>> inboxes_
      FIFL_GUARDED_BY(inboxes_mutex_);
};

}  // namespace fifl::net
