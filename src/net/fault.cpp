#include "net/fault.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/flight_recorder.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace fifl::net {

namespace {

/// Data-plane payloads begin with their round as a u64 (RoundTagged in
/// messages.hpp), which is what makes round-windowed partitions possible
/// without the transport knowing each message's full schema.
std::uint64_t payload_round(std::span<const std::uint8_t> payload) {
  util::ByteReader reader(payload);
  return reader.read_u64();
}

std::uint64_t stream_seed(std::uint64_t seed, NodeKey from, NodeKey to,
                          MessageType type) noexcept {
  std::uint64_t sm = seed;
  sm ^= util::splitmix64(sm) ^ (static_cast<std::uint64_t>(from) << 40) ^
        (static_cast<std::uint64_t>(to) << 16) ^
        static_cast<std::uint64_t>(type);
  return util::splitmix64(sm);
}

}  // namespace

bool FaultSchedule::empty() const noexcept {
  if (!partitions.empty() || !crashes.empty() || !byzantine.empty()) {
    return false;
  }
  return std::none_of(links.begin(), links.end(),
                      [](const LinkFaults& lf) { return lf.any(); });
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kByzantine: return "byzantine";
    case FaultKind::kCrashRecover: return "crash_recover";
  }
  return "unknown";
}

/// Endpoint wrapper: routes sends through FaultyTransport::faulty_send and
/// silences recv once the owning node has crashed. The inner endpoint is
/// shared with the delivery thread, which may still owe it deferred sends
/// after the wrapper is destroyed.
class FaultyEndpoint : public Endpoint {
 public:
  FaultyEndpoint(FaultyTransport* transport, std::shared_ptr<Endpoint> inner)
      : transport_(transport), inner_(std::move(inner)) {}

  ~FaultyEndpoint() override { close(); }

  NodeKey address() const noexcept override { return inner_->address(); }

  void send(NodeKey to, MessageType type,
            std::span<const std::uint8_t> payload,
            const obs::TraceContext* trace) override {
    transport_->faulty_send(inner_, address(), to, type, payload, trace);
  }

  std::optional<Envelope> recv(std::chrono::milliseconds timeout) override {
    if (!transport_->crashed(address())) return inner_->recv(timeout);
    const std::uint64_t recover = transport_->recover_round(address());
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    if (recover == 0) {
      // Crash-stop: a dead process neither reads nor answers — burn the
      // caller's timeout in small slices (so close() still unblocks
      // promptly) and report silence. The node's event loop then exits
      // through its idle path, exactly like a peer observing a dead
      // process.
      while (std::chrono::steady_clock::now() < deadline) {
        if (closed_.load(std::memory_order_acquire)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      return std::nullopt;
    }
    // Crash-recover: everything that arrives while the node is down is
    // popped and discarded (the dead process read nothing), until the
    // first data-plane message whose payload round reaches recover_round —
    // the restarted process's first observed traffic — which revives the
    // node AND is delivered to it.
    while (!closed_.load(std::memory_order_acquire)) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      auto env = inner_->recv(
          std::min(left, std::chrono::milliseconds(10)));
      if (!env) continue;
      if (leads_with_round(env->type) && env->payload.size() >= 8 &&
          payload_round(env->payload) >= recover) {
        transport_->revive(address(), env->type,
                           payload_round(env->payload));
        return env;
      }
    }
    return std::nullopt;
  }

  void close() override {
    closed_.store(true, std::memory_order_release);
    inner_->close();
  }

 private:
  FaultyTransport* transport_;
  std::shared_ptr<Endpoint> inner_;
  std::atomic<bool> closed_{false};
};

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 FaultSchedule schedule)
    : schedule_(std::move(schedule)), inner_(std::move(inner)) {
  delivery_ = std::thread([this] { delivery_loop(); });
}

FaultyTransport::~FaultyTransport() {
  {
    std::lock_guard lock(delay_mutex_);
    shutdown_ = true;
    // Deferred messages still queued at teardown are dropped — the same
    // outcome as a delay longer than the run.
    delay_queue_.clear();
  }
  delay_cv_.notify_all();
  if (delivery_.joinable()) delivery_.join();
}

std::unique_ptr<Endpoint> FaultyTransport::open(NodeKey address) {
  return std::make_unique<FaultyEndpoint>(
      this, std::shared_ptr<Endpoint>(inner_->open(address)));
}

std::vector<FaultEvent> FaultyTransport::fault_log() const {
  std::vector<FaultEvent> log;
  {
    util::MutexLock lock(mutex_);
    log = log_;
  }
  std::sort(log.begin(), log.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return std::tie(a.from, a.to, a.type, a.seq, a.kind) <
                     std::tie(b.from, b.to, b.type, b.seq, b.kind);
            });
  return log;
}

std::size_t FaultyTransport::fault_count() const {
  util::MutexLock lock(mutex_);
  return log_.size();
}

bool FaultyTransport::crashed(NodeKey node) const {
  util::MutexLock lock(mutex_);
  return crashed_.count(node) != 0;
}

std::uint64_t FaultyTransport::recover_round(NodeKey node) const {
  util::MutexLock lock(mutex_);
  if (crashed_.count(node) == 0) return 0;
  for (const NodeCrash& crash : schedule_.crashes) {
    if (crash.node == node && crash.recover_round != 0) {
      return crash.recover_round;
    }
  }
  return 0;
}

void FaultyTransport::revive(NodeKey node, MessageType type,
                             std::uint64_t round) {
  {
    util::MutexLock lock(mutex_);
    if (crashed_.erase(node) == 0) return;  // already revived
  }
  NetMetrics::global().faults_injected->inc();
  if (obs::FlightRing* ring = obs::FlightRegistry::global().ring(node)) {
    ring->note(obs::FlightEventKind::kFault, node,
               static_cast<std::uint8_t>(type), round,
               static_cast<std::uint64_t>(FaultKind::kCrashRecover));
  }
  util::log_info() << "fault: node " << node << " recovered on round "
                   << round << " " << message_type_name(type);
  util::MutexLock lock(mutex_);
  log_.push_back(
      FaultEvent{FaultKind::kCrashRecover, node, node, type, round});
}

void FaultyTransport::record(FaultKind kind, NodeKey from, NodeKey to,
                             MessageType type, std::uint64_t seq,
                             std::uint64_t delay_ms) {
  NetMetrics::global().faults_injected->inc();
  if (obs::FlightRing* ring = obs::FlightRegistry::global().ring(from)) {
    ring->note(obs::FlightEventKind::kFault, to,
               static_cast<std::uint8_t>(type), 0,
               static_cast<std::uint64_t>(kind));
  }
  util::log_debug() << "fault: " << fault_kind_name(kind) << " "
                    << message_type_name(type) << " " << from << " -> " << to
                    << " seq " << seq;
  util::MutexLock lock(mutex_);
  log_.push_back(FaultEvent{kind, from, to, type, seq, delay_ms});
}

void FaultyTransport::defer(const std::shared_ptr<Endpoint>& via, NodeKey to,
                            MessageType type,
                            std::span<const std::uint8_t> payload,
                            const obs::TraceContext* trace,
                            std::chrono::milliseconds delay) {
  {
    std::lock_guard lock(delay_mutex_);
    if (!shutdown_) {
      delay_queue_.push_back(
          Deferred{std::chrono::steady_clock::now() + delay,
                   next_deferred_id_++, via, to, type,
                   std::vector<std::uint8_t>(payload.begin(), payload.end()),
                   trace != nullptr,
                   trace != nullptr ? *trace : obs::TraceContext{}});
    }
  }
  delay_cv_.notify_all();
}

void FaultyTransport::delivery_loop() {
  std::unique_lock lock(delay_mutex_);
  for (;;) {
    if (shutdown_) return;
    if (delay_queue_.empty()) {
      delay_cv_.wait(lock,
                     [this] { return shutdown_ || !delay_queue_.empty(); });
      continue;
    }
    const auto earliest = std::min_element(
        delay_queue_.begin(), delay_queue_.end(),
        [](const Deferred& a, const Deferred& b) {
          return std::tie(a.due, a.id) < std::tie(b.due, b.id);
        });
    // Sleep until the earliest entry is due, waking early only for
    // shutdown or a newly deferred message (which may be due sooner).
    // The predicate must NOT be "queue non-empty" — that is trivially
    // true while anything is pending, which turns the wait into a hot
    // spin on delay_mutex_ that starves the sender threads calling
    // defer() and with them every heartbeat those nodes owe.
    // Copy the deadline out of the queue entry: wait_until holds its
    // time argument by reference across unlock/relock cycles, and a
    // concurrent defer() can reallocate delay_queue_ and dangle the
    // iterator while we sleep.
    const auto due_at = earliest->due;
    const std::uint64_t gen = next_deferred_id_;
    delay_cv_.wait_until(lock, due_at, [this, gen] {
      return shutdown_ || next_deferred_id_ != gen;
    });
    if (shutdown_) return;
    // Re-scan after the wait: the queue may have gained an earlier entry.
    std::vector<Deferred> due;
    const auto now = std::chrono::steady_clock::now();
    for (auto it = delay_queue_.begin(); it != delay_queue_.end();) {
      if (it->due <= now) {
        due.push_back(std::move(*it));
        it = delay_queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (due.empty()) continue;
    std::sort(due.begin(), due.end(), [](const Deferred& a, const Deferred& b) {
      return std::tie(a.due, a.id) < std::tie(b.due, b.id);
    });
    lock.unlock();
    for (const Deferred& d : due) {
      try {
        d.via->send(d.to, d.type, d.payload,
                    d.has_trace ? &d.trace : nullptr);
      } catch (const std::exception& e) {
        // A deferred message to a torn-down peer just disappears, like a
        // packet to a dead host.
        util::log_debug() << "fault: deferred send dropped: " << e.what();
      }
    }
    lock.lock();
  }
}

void FaultyTransport::faulty_send(const std::shared_ptr<Endpoint>& via,
                                  NodeKey from, NodeKey to, MessageType type,
                                  std::span<const std::uint8_t> payload,
                                  const obs::TraceContext* trace) {
  {
    util::MutexLock lock(mutex_);
    if (crashed_.count(from) != 0) return;  // dead processes send nothing
  }

  bool deliver_now = true;
  bool duplicate = false;
  std::chrono::milliseconds deferred_delay{0};

  // Byzantine servers corrupt every slice they publish — deterministic
  // (no RNG draws), so the lead's divergence check trips identically on
  // every run of the same schedule.
  std::vector<std::uint8_t> corrupted;
  if (type == MessageType::kSliceAggregate &&
      std::find(schedule_.byzantine.begin(), schedule_.byzantine.end(),
                from) != schedule_.byzantine.end()) {
    SliceAggregateMsg slice = decode_payload<SliceAggregateMsg>(payload);
    if (!slice.values.empty()) slice.values[0] += 1.0f;
    corrupted = encode_payload(slice);
    payload = corrupted;
    std::uint64_t seq = 0;
    {
      util::MutexLock lock(mutex_);
      const auto it = streams_.find(
          std::make_tuple(from, to, static_cast<std::uint8_t>(type)));
      if (it != streams_.end()) seq = it->second.seq;
    }
    record(FaultKind::kByzantine, from, to, type, seq);
  }

  if (leads_with_round(type)) {
    const LinkFaults* link = nullptr;
    for (const LinkFaults& lf : schedule_.links) {
      if (lf.matches(from, to)) {
        link = &lf;
        break;
      }
    }

    std::uint64_t seq = 0;
    double d_drop = 1.0, d_dup = 1.0, d_delay = 1.0, d_reorder = 1.0;
    double d_amount = 0.0;
    {
      util::MutexLock lock(mutex_);
      auto [it, fresh] = streams_.try_emplace(
          std::make_tuple(from, to, static_cast<std::uint8_t>(type)));
      if (fresh) {
        it->second.rng.reseed(stream_seed(schedule_.seed, from, to, type));
      }
      seq = it->second.seq++;
      if (link != nullptr && link->any()) {
        // Always burn the same number of draws per message so the decision
        // sequence depends only on the message's stream index.
        d_drop = it->second.rng.uniform();
        d_dup = it->second.rng.uniform();
        d_delay = it->second.rng.uniform();
        d_reorder = it->second.rng.uniform();
        d_amount = it->second.rng.uniform();
      }
    }

    // Partitions override probabilistic faults; they are matched on the
    // round carried in the payload, not on wall-clock time.
    const std::uint64_t round = payload_round(payload);
    for (const LinkPartition& p : schedule_.partitions) {
      if ((p.from == kAnyNode || p.from == from) &&
          (p.to == kAnyNode || p.to == to) && round >= p.first_round &&
          round <= p.last_round) {
        record(FaultKind::kPartition, from, to, type, seq);
        deliver_now = false;
        break;
      }
    }

    if (deliver_now && link != nullptr && link->any()) {
      if (d_drop < link->drop_prob) {
        record(FaultKind::kDrop, from, to, type, seq);
        deliver_now = false;
      } else {
        if (d_reorder < link->reorder_prob) {
          deferred_delay = link->reorder_delay;
          record(FaultKind::kReorder, from, to, type, seq,
                 static_cast<std::uint64_t>(deferred_delay.count()));
        } else if (d_delay < link->delay_prob) {
          const auto span = static_cast<double>(
              (link->delay_max - link->delay_min).count());
          deferred_delay =
              link->delay_min +
              std::chrono::milliseconds(static_cast<std::int64_t>(
                  std::floor(d_amount * std::max(span, 0.0))));
          record(FaultKind::kDelay, from, to, type, seq,
                 static_cast<std::uint64_t>(deferred_delay.count()));
        }
        if (d_dup < link->dup_prob) {
          duplicate = true;
          record(FaultKind::kDuplicate, from, to, type, seq);
        }
      }
    }
  }

  if (deliver_now) {
    if (deferred_delay.count() > 0) {
      defer(via, to, type, payload, trace, deferred_delay);
    } else {
      via->send(to, type, payload, trace);
    }
    if (duplicate) via->send(to, type, payload, trace);
  }

  // Crash triggers count every message of the trigger type the node
  // ATTEMPTED, whether or not a fault ate it, and flip only after this
  // send so the k-th message itself still goes out — the process died
  // right after write().
  {
    util::MutexLock lock(mutex_);
    const bool counted = std::any_of(
        schedule_.crashes.begin(), schedule_.crashes.end(),
        [&](const NodeCrash& crash) {
          return crash.node == from && crash.after_type == type;
        });
    if (counted) {
      const std::uint64_t sent =
          ++sends_by_type_[{from, static_cast<std::uint8_t>(type)}];
      for (const NodeCrash& crash : schedule_.crashes) {
        if (crash.node == from && crash.after_type == type &&
            sent == crash.after_uploads && crashed_.insert(from).second) {
          NetMetrics::global().faults_injected->inc();
          util::log_debug() << "fault: crash node " << from << " after "
                            << sent << " " << message_type_name(type)
                            << " sends";
          log_.push_back(
              FaultEvent{FaultKind::kCrash, from, from, type, sent});
        }
      }
    }
  }
}

}  // namespace fifl::net
