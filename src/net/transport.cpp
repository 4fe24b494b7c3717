#include "net/transport.hpp"

#include <stdexcept>
#include <string>

#include "net/frame.hpp"

namespace fifl::net {

NetMetrics& NetMetrics::global() {
  static NetMetrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    NetMetrics m{};
    m.bytes_tx = &reg.counter("net.bytes_tx");
    m.bytes_rx = &reg.counter("net.bytes_rx");
    for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
      const char* name =
          message_type_name(static_cast<MessageType>(i + 1));
      m.bytes_tx_type[i] = &reg.counter(std::string("net.bytes_tx.") + name);
      m.bytes_rx_type[i] = &reg.counter(std::string("net.bytes_rx.") + name);
    }
    m.msgs_tx = &reg.counter("net.msgs_tx");
    m.msgs_rx = &reg.counter("net.msgs_rx");
    m.frame_errors = &reg.counter("net.frame_errors");
    m.rtt_ms = &reg.histogram("net.rtt_ms");
    for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
      const char* name =
          message_type_name(static_cast<MessageType>(i + 1));
      m.handle_ms_type[i] =
          &reg.histogram(std::string("net.handle_ms.") + name);
    }
    m.phase_broadcast_ms = &reg.histogram("net.phase.broadcast_ms");
    m.phase_collect_ms = &reg.histogram("net.phase.collect_ms");
    m.phase_assess_ms = &reg.histogram("net.phase.assess_ms");
    m.phase_ledger_commit_ms = &reg.histogram("net.phase.ledger_commit_ms");
    m.phase_record_ms = &reg.histogram("net.phase.record_ms");
    m.send_retries = &reg.counter("net.send_retries");
    m.send_failures = &reg.counter("net.send_failures");
    m.late_uploads = &reg.counter("net.late_uploads");
    m.dead_uploads = &reg.counter("net.dead_uploads");
    m.dropped_workers = &reg.counter("net.dropped_workers");
    m.worker_rejoins = &reg.counter("net.worker_rejoins");
    m.rounds_degraded = &reg.counter("net.rounds_degraded");
    m.slice_gaps = &reg.counter("net.slice_gaps");
    m.faults_injected = &reg.counter("net.faults_injected");
    m.view_changes = &reg.counter("net.view_changes");
    m.server_rejoins = &reg.counter("net.server_rejoins");
    m.election_ms = &reg.histogram("net.election_ms");
    return m;
  }();
  return metrics;
}

void Inbox::push(Envelope envelope) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return;
    queue_.push_back(std::move(envelope));
  }
  cv_.notify_one();
}

std::optional<Envelope> Inbox::pop(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  cv_.wait_for(lock, timeout, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;
  Envelope envelope = std::move(queue_.front());
  queue_.pop_front();
  return envelope;
}

void Inbox::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

namespace {

class LoopbackEndpoint : public Endpoint {
 public:
  LoopbackEndpoint(LoopbackTransport* transport, NodeKey address,
                   std::shared_ptr<Inbox> inbox)
      : transport_(transport), address_(address), inbox_(std::move(inbox)) {}

  ~LoopbackEndpoint() override { close(); }

  NodeKey address() const noexcept override { return address_; }

  void send(NodeKey to, MessageType type,
            std::span<const std::uint8_t> payload,
            const obs::TraceContext* trace) override {
    // Round-trip through the real wire format so loopback tests cover the
    // same encode/decode path TCP uses; the frame layer is not mocked out.
    const std::vector<std::uint8_t> wire =
        encode_frame(static_cast<std::uint8_t>(type), address_, payload, trace);
    auto& metrics = NetMetrics::global();
    FrameDecoder decoder;
    decoder.feed(wire);
    std::optional<Frame> frame;
    try {
      frame = decoder.next();
    } catch (const FrameError&) {
      metrics.frame_errors->inc();
      throw;
    }
    metrics.bytes_tx->inc(wire.size());
    metrics.msgs_tx->inc();
    std::shared_ptr<Inbox> inbox = transport_->inbox_for(to);
    metrics.bytes_rx->inc(wire.size());
    metrics.msgs_rx->inc();
    const std::uint8_t raw = static_cast<std::uint8_t>(type);
    if (obs::Counter* c = metrics.tx_for(raw)) c->inc(wire.size());
    if (obs::Counter* c = metrics.rx_for(raw)) c->inc(wire.size());
    inbox->push(Envelope{frame->from, static_cast<MessageType>(frame->type),
                         std::move(frame->payload), frame->has_trace,
                         frame->trace});
  }

  std::optional<Envelope> recv(std::chrono::milliseconds timeout) override {
    return inbox_->pop(timeout);
  }

  void close() override { inbox_->close(); }

 private:
  LoopbackTransport* transport_;
  NodeKey address_;
  std::shared_ptr<Inbox> inbox_;
};

}  // namespace

std::shared_ptr<Inbox> LoopbackTransport::inbox_for(NodeKey address) {
  util::MutexLock lock(inboxes_mutex_);
  const auto it = inboxes_.find(address);
  if (it == inboxes_.end()) {
    throw std::runtime_error("loopback: no endpoint open for node " +
                             std::to_string(address));
  }
  return it->second;
}

std::unique_ptr<Endpoint> LoopbackTransport::open(NodeKey address) {
  auto inbox = std::make_shared<Inbox>();
  {
    util::MutexLock lock(inboxes_mutex_);
    if (!inboxes_.emplace(address, inbox).second) {
      throw std::runtime_error("loopback: node " + std::to_string(address) +
                               " already open");
    }
  }
  return std::make_unique<LoopbackEndpoint>(this, address, std::move(inbox));
}

}  // namespace fifl::net
