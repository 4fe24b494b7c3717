// A net::Transport decorator that times the endpoints of the transport it
// wraps, handed to the cluster through ClusterConfig::transport_override.
//
// Always: stamps the first ModelBroadcast send (the end of cluster setup).
// With a span log: one span per send and per recv that returned a message,
// tagged with the current round, plus a count of every recv call.
#pragma once

#include <atomic>
#include <memory>

#include "measure.hpp"
#include "net/transport.hpp"

namespace perfbench {

class TimingTransport final : public fifl::net::Transport {
 public:
  /// `log` null = untraced: only the first-broadcast stamp is taken.
  TimingTransport(std::shared_ptr<fifl::net::Transport> inner, SpanLog* log);

  std::unique_ptr<fifl::net::Endpoint> open(fifl::net::NodeKey address) override;

  /// now_ms() at the first ModelBroadcast send; 0 before it.
  double first_broadcast_ms() const noexcept {
    return first_broadcast_ms_.load(std::memory_order_acquire);
  }
  /// Round id given to spans recorded from now on.
  void set_round(std::uint64_t round) noexcept {
    round_.store(round, std::memory_order_relaxed);
  }
  std::uint64_t recv_calls() const noexcept { return recv_calls_.load(); }
  std::uint64_t recv_messages() const noexcept { return recv_messages_.load(); }

 private:
  friend class TimingEndpoint;

  std::shared_ptr<fifl::net::Transport> inner_;
  SpanLog* log_;
  std::atomic<double> first_broadcast_ms_{0.0};
  std::atomic<std::uint64_t> round_{0};
  std::atomic<std::uint64_t> recv_calls_{0};
  std::atomic<std::uint64_t> recv_messages_{0};
};

}  // namespace perfbench
