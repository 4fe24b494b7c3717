// Transport behaviour shared by loopback and TCP: delivery, typed
// payloads, timeouts, close semantics, metrics accounting — plus the
// TCP-only garbage-injection path that must land in net.frame_errors.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "net/tcp.hpp"
#include "net/transport.hpp"

namespace fifl::net {
namespace {

GradientUploadMsg sample_upload(std::size_t size) {
  GradientUploadMsg msg;
  msg.round = 2;
  msg.worker = 1;
  msg.samples = 99;
  msg.gradient.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    msg.gradient[i] = static_cast<float>(i) * 0.25f - 3.0f;
  }
  return msg;
}

void exercise_transport(Transport& transport) {
  auto a = transport.open(1);
  auto b = transport.open(2);

  const std::uint64_t tx_before = NetMetrics::global().msgs_tx->value();
  const std::uint64_t rx_before = NetMetrics::global().msgs_rx->value();

  // Typed round trip, including a payload big enough to span several
  // TCP segments.
  const GradientUploadMsg sent = sample_upload(20000);
  a->send_msg(2, sent);
  auto env = b->recv(std::chrono::milliseconds(5000));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->from, 1u);
  EXPECT_EQ(env->type, MessageType::kGradientUpload);
  const auto back = decode_payload<GradientUploadMsg>(env->payload);
  EXPECT_EQ(back.gradient, sent.gradient);

  // Both directions.
  b->send_msg(1, HeartbeatMsg{2, 77, 0});
  env = a->recv(std::chrono::milliseconds(5000));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->type, MessageType::kHeartbeat);
  EXPECT_EQ(decode_payload<HeartbeatMsg>(env->payload).token, 77u);

  // FIFO per sender.
  for (std::uint64_t t = 0; t < 10; ++t) {
    a->send_msg(2, HeartbeatMsg{1, t, 0});
  }
  for (std::uint64_t t = 0; t < 10; ++t) {
    env = b->recv(std::chrono::milliseconds(5000));
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(decode_payload<HeartbeatMsg>(env->payload).token, t);
  }

  EXPECT_GE(NetMetrics::global().msgs_tx->value(), tx_before + 12);
  EXPECT_GE(NetMetrics::global().msgs_rx->value(), rx_before + 12);

  // recv on an empty inbox times out with nullopt, and close() unblocks
  // a waiting receiver promptly.
  EXPECT_FALSE(a->recv(std::chrono::milliseconds(20)).has_value());
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a->close();
  });
  EXPECT_FALSE(a->recv(std::chrono::milliseconds(10000)).has_value());
  closer.join();
  b->close();
}

TEST(LoopbackTransport, EndToEnd) {
  LoopbackTransport transport;
  exercise_transport(transport);
}

TEST(LoopbackTransport, SendToUnopenedKeyThrows) {
  LoopbackTransport transport;
  auto a = transport.open(1);
  EXPECT_THROW(a->send_msg(99, HeartbeatMsg{1, 0, 0}),
               std::runtime_error);
}

TEST(TcpTransport, EndToEnd) {
  TcpTransport transport;
  exercise_transport(transport);
}

TEST(TcpTransport, EphemeralPortsAreDistinct) {
  TcpTransport transport;
  auto a = transport.open(1);
  auto b = transport.open(2);
  EXPECT_NE(transport.port_of(1), 0);
  EXPECT_NE(transport.port_of(2), 0);
  EXPECT_NE(transport.port_of(1), transport.port_of(2));
  a->close();
  b->close();
}

TEST(TcpTransport, GarbageStreamCountsFrameErrorsAndKeepsEndpointAlive) {
  TcpTransport transport;
  auto a = transport.open(1);
  auto b = transport.open(2);
  const std::uint64_t errors_before =
      NetMetrics::global().frame_errors->value();

  // Raw client speaking nonsense at endpoint 2's listener.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(transport.port_of(2));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "this is definitely not a FNET frame, not even close";
  ASSERT_GT(::write(fd, garbage, sizeof(garbage)), 0);

  // The reader thread should notice, drop the connection, and count it.
  bool counted = false;
  for (int i = 0; i < 200 && !counted; ++i) {
    counted = NetMetrics::global().frame_errors->value() > errors_before;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);
  EXPECT_TRUE(counted);

  // The poisoned connection must not take the endpoint down: real peers
  // still get through.
  a->send_msg(2, HeartbeatMsg{1, 123, 0});
  auto env = b->recv(std::chrono::milliseconds(5000));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(decode_payload<HeartbeatMsg>(env->payload).token, 123u);

  a->close();
  b->close();
}

TEST(TcpTransport, SendRetriesWithBackoffThenFails) {
  TcpTransport transport;
  transport.set_retry_policy(
      TcpRetryPolicy{.max_attempts = 3,
                     .base_delay = std::chrono::milliseconds(5)});
  auto a = transport.open(1);
  auto b = transport.open(2);

  // Warm the connection, then kill the peer: every reconnect now fails,
  // so the send must burn its whole retry budget and then throw.
  a->send_msg(2, HeartbeatMsg{1, 1, 0});
  ASSERT_TRUE(b->recv(std::chrono::milliseconds(5000)).has_value());
  b->close();

  const std::uint64_t retries_before =
      NetMetrics::global().send_retries->value();
  const std::uint64_t failures_before =
      NetMetrics::global().send_failures->value();
  // The first write after the peer died can still land in the kernel
  // buffer; keep sending until the failure surfaces. Once it does, every
  // reconnect hits the closed listener, so the send burns its whole
  // budget: attempts 1..3 => exactly 2 counted retries, then the throw.
  bool threw = false;
  for (int i = 0; i < 50 && !threw; ++i) {
    try {
      a->send_msg(2, HeartbeatMsg{1, static_cast<std::uint64_t>(i + 2), 0});
    } catch (const std::exception&) {
      threw = true;
    }
    if (!threw) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(NetMetrics::global().send_retries->value() - retries_before, 2u);
  EXPECT_EQ(NetMetrics::global().send_failures->value() - failures_before,
            1u);
  a->close();
}

TEST(TcpTransport, HealthyLinkNeverRetries) {
  TcpTransport transport;
  auto a = transport.open(1);
  auto b = transport.open(2);

  const std::uint64_t retries_before =
      NetMetrics::global().send_retries->value();
  for (int i = 0; i < 5; ++i) {
    a->send_msg(2, HeartbeatMsg{1, static_cast<std::uint64_t>(i), 0});
  }
  int got = 0;
  while (got < 5 && b->recv(std::chrono::milliseconds(2000)).has_value()) {
    ++got;
  }
  EXPECT_EQ(got, 5);
  EXPECT_EQ(NetMetrics::global().send_retries->value(), retries_before);
  a->close();
  b->close();
}

}  // namespace
}  // namespace fifl::net
