#include "timing_transport.hpp"

#include <string>

namespace perfbench {

namespace net = fifl::net;

class TimingEndpoint final : public net::Endpoint {
 public:
  TimingEndpoint(std::unique_ptr<net::Endpoint> inner, TimingTransport* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  net::NodeKey address() const noexcept override { return inner_->address(); }

  void send(net::NodeKey to, net::MessageType type,
            std::span<const std::uint8_t> payload,
            const fifl::obs::TraceContext* trace) override {
    const bool stamp = type == net::MessageType::kModelBroadcast &&
                       owner_->first_broadcast_ms() == 0.0;
    const double start = stamp || owner_->log_ ? now_ms() : 0.0;
    if (stamp) {
      double expected = 0.0;
      owner_->first_broadcast_ms_.compare_exchange_strong(
          expected, start, std::memory_order_acq_rel);
    }
    inner_->send(to, type, payload, trace);
    if (owner_->log_) {
      owner_->log_->add(Span{std::string("send.") + net::message_type_name(type),
                             owner_->round_.load(std::memory_order_relaxed),
                             start, now_ms(), kNoParent});
    }
  }

  std::optional<net::Envelope> recv(std::chrono::milliseconds timeout) override {
    if (!owner_->log_) return inner_->recv(timeout);
    const double start = now_ms();
    std::optional<net::Envelope> envelope = inner_->recv(timeout);
    owner_->recv_calls_.fetch_add(1, std::memory_order_relaxed);
    if (envelope) {
      owner_->recv_messages_.fetch_add(1, std::memory_order_relaxed);
      owner_->log_->add(
          Span{std::string("recv.") + net::message_type_name(envelope->type),
               owner_->round_.load(std::memory_order_relaxed), start, now_ms(),
               kNoParent});
    }
    return envelope;
  }

  void close() override { inner_->close(); }

 private:
  std::unique_ptr<net::Endpoint> inner_;
  TimingTransport* owner_;
};

TimingTransport::TimingTransport(std::shared_ptr<net::Transport> inner,
                                 SpanLog* log)
    : inner_(std::move(inner)), log_(log) {}

std::unique_ptr<net::Endpoint> TimingTransport::open(net::NodeKey address) {
  return std::make_unique<TimingEndpoint>(inner_->open(address), this);
}

}  // namespace perfbench
