#include "net/node.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "chain/sha256.hpp"
#include "core/round_common.hpp"
#include "nn/checkpoint.hpp"
#include "obs/flight_recorder.hpp"
#include "util/logging.hpp"

namespace fifl::net {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Token space for the worker liveness heartbeats, disjoint from the
/// per-round RTT ping tokens (which are round numbers).
constexpr std::uint64_t kLivenessTokenBase = 1ull << 63;

/// Sends one message under a fresh child span when tracing is on; the
/// disabled path is the plain send plus one pointer check. `parent_span`
/// links the send into the causal tree (0 = root of the round's tree).
template <WireMessage Msg>
void traced_send(Endpoint& endpoint, const NodeTracer& tracer, NodeKey to,
                 const Msg& msg, std::uint64_t round,
                 std::uint64_t parent_span = 0) {
  if (!tracer.tracing()) {
    endpoint.send_msg(to, msg);
    return;
  }
  const obs::TraceContext ctx{round_trace_id(round),
                              next_span_id(tracer.node), parent_span};
  const std::uint64_t t0 = trace_now_us();
  endpoint.send_msg(to, msg, &ctx);
  tracer.span(obs::SpanKind::kSend, message_type_name(Msg::kType), round, t0,
              trace_now_us() - t0, ctx, to);
  tracer.note(obs::FlightEventKind::kSend, to,
              static_cast<std::uint8_t>(Msg::kType), round);
}

/// traced_send to a peer that may be gone: the failure is logged and
/// returned, and the caller's deadline, liveness or quorum path absorbs
/// the missing message.
template <WireMessage Msg>
bool send_or_log(Endpoint& endpoint, const NodeTracer& tracer, NodeKey to,
                 const Msg& msg, std::uint64_t round,
                 std::uint64_t parent_span = 0) {
  try {
    traced_send(endpoint, tracer, to, msg, round, parent_span);
    return true;
  } catch (const std::exception& e) {
    util::log_warn() << "net: node " << endpoint.address()
                     << " failed to send " << message_type_name(Msg::kType)
                     << " for round " << round << " to node " << to << ": "
                     << e.what();
    return false;
  }
}

/// Recv-side bookkeeping for one handled envelope: the per-type
/// handle-time histogram always, a recv + handle span pair (and a
/// flight-ring note) when the envelope carried a trace context.
void note_handled(const NodeTracer& tracer, const Envelope& env,
                  std::chrono::steady_clock::time_point start) {
  const double ms = elapsed_ms(start);
  if (obs::Histogram* h = NetMetrics::global().handle_for(
          static_cast<std::uint8_t>(env.type))) {
    h->observe(ms);
  }
  if (!tracer.tracing() || !env.has_trace) return;
  const std::uint64_t round = env.trace.trace_id - 1;
  const std::uint64_t dur = static_cast<std::uint64_t>(ms * 1000.0);
  const std::uint64_t end = trace_now_us();
  const obs::TraceContext recv_ctx{env.trace.trace_id,
                                   next_span_id(tracer.node),
                                   env.trace.span_id};
  tracer.span(obs::SpanKind::kRecv, message_type_name(env.type), round,
              end - dur, 0, recv_ctx, env.from);
  const obs::TraceContext handle_ctx{env.trace.trace_id,
                                     next_span_id(tracer.node),
                                     recv_ctx.span_id};
  tracer.span(obs::SpanKind::kHandle, message_type_name(env.type), round,
              end - dur, dur, handle_ctx, env.from);
  tracer.note(obs::FlightEventKind::kRecv, env.from,
              static_cast<std::uint8_t>(env.type), round);
}

/// The join handshake both node kinds run against the bootstrap lead:
/// sends `join` (advertising tracing when on, which starts the clock-sync
/// handshake: the JoinAck answers with the lead's clock, and half the
/// measured round trip estimates the one-way delay), hands every other
/// envelope to `other`, and records the skew estimate. nullopt when the
/// node was stopped first; throws when no JoinAck arrives in time.
template <typename Other>
std::optional<JoinAckMsg> join_lead(Endpoint& endpoint,
                                    const NodeTracer& tracer, NodeKey lead,
                                    JoinMsg join,
                                    std::chrono::milliseconds timeout,
                                    const std::atomic<bool>& stop,
                                    const char* node_kind, Other other) {
  std::uint64_t join_sent_us = 0;
  if (tracer.tracing()) {
    join.features = kFeatureTrace;
    join_sent_us = trace_now_us();
    join.clock_us = join_sent_us;
  }
  traced_send(endpoint, tracer, lead, join, 0);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      throw std::runtime_error(std::string(node_kind) + " " +
                               std::to_string(endpoint.address()) +
                               ": join timed out");
    }
    auto env = endpoint.recv(left);
    if (!env) continue;
    if (env->type != MessageType::kJoinAck) {
      other(*env);
      continue;
    }
    const auto handle_start = std::chrono::steady_clock::now();
    const auto ack = decode_payload<JoinAckMsg>(env->payload);
    if (tracer.tracing() && (ack.features & kFeatureTrace) != 0) {
      const std::uint64_t t1 = trace_now_us();
      const std::int64_t rtt = static_cast<std::int64_t>(t1 - join_sent_us);
      const std::int64_t skew = static_cast<std::int64_t>(ack.clock_us) +
                                rtt / 2 - static_cast<std::int64_t>(t1);
      tracer.clock(skew, rtt);
    }
    note_handled(tracer, *env, handle_start);
    return ack;
  }
  return std::nullopt;
}

/// Executor round-phase bookkeeping: the phase histogram always, a phase
/// span (+ flight note) when tracing.
void note_phase(const NodeTracer& tracer, obs::Histogram* hist,
                const char* name, std::uint64_t round,
                std::chrono::steady_clock::time_point start) {
  const double ms = elapsed_ms(start);
  hist->observe(ms);
  if (!tracer.tracing()) return;
  const std::uint64_t dur = static_cast<std::uint64_t>(ms * 1000.0);
  const obs::TraceContext ctx{round_trace_id(round),
                              next_span_id(tracer.node), 0};
  tracer.span(obs::SpanKind::kPhase, name, round, trace_now_us() - dur, dur,
              ctx);
  tracer.note(obs::FlightEventKind::kPhase, obs::kNoFlightPeer, 0, round);
}

}  // namespace

struct ServerNode::CounterSnapshot {
  std::uint64_t bytes_tx, bytes_rx, msgs_tx, msgs_rx, frame_errors;
  std::uint64_t late_uploads, send_retries, dropped_workers;
  std::array<std::uint64_t, kMessageTypeCount> tx_by_type;
  std::array<std::uint64_t, kMessageTypeCount> rx_by_type;

  static CounterSnapshot take() {
    NetMetrics& m = NetMetrics::global();
    CounterSnapshot s{};
    s.bytes_tx = m.bytes_tx->value();
    s.bytes_rx = m.bytes_rx->value();
    s.msgs_tx = m.msgs_tx->value();
    s.msgs_rx = m.msgs_rx->value();
    s.frame_errors = m.frame_errors->value();
    s.late_uploads = m.late_uploads->value();
    s.send_retries = m.send_retries->value();
    s.dropped_workers = m.dropped_workers->value();
    for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
      s.tx_by_type[i] = m.bytes_tx_type[i]->value();
      s.rx_by_type[i] = m.bytes_rx_type[i]->value();
    }
    return s;
  }

  obs::RoundTrace::NetStats delta_since() const {
    const CounterSnapshot now = take();
    obs::RoundTrace::NetStats d;
    d.bytes_tx = now.bytes_tx - bytes_tx;
    d.bytes_rx = now.bytes_rx - bytes_rx;
    d.msgs_tx = now.msgs_tx - msgs_tx;
    d.msgs_rx = now.msgs_rx - msgs_rx;
    d.frame_errors = now.frame_errors - frame_errors;
    d.late_uploads = now.late_uploads - late_uploads;
    d.send_retries = now.send_retries - send_retries;
    d.dropped_workers = now.dropped_workers - dropped_workers;
    for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
      const char* name = message_type_name(static_cast<MessageType>(i + 1));
      if (const std::uint64_t dt = now.tx_by_type[i] - tx_by_type[i]) {
        d.bytes_tx_by_type.emplace_back(name, dt);
      }
      if (const std::uint64_t dr = now.rx_by_type[i] - rx_by_type[i]) {
        d.bytes_rx_by_type.emplace_back(name, dr);
      }
    }
    return d;
  }
};

std::vector<NodeKey> Topology::server_keys() const {
  std::vector<NodeKey> keys(servers);
  for (std::uint32_t j = 0; j < servers; ++j) keys[j] = server_key(j);
  return keys;
}

void canonicalize_uploads_into(std::span<const GradientUploadMsg> msgs,
                               std::size_t workers,
                               std::vector<fl::Upload>& out) {
  out.resize(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    out[i].worker = static_cast<chain::NodeId>(i);
    out[i].arrived = false;
    out[i].samples = 0;
    out[i].ground_truth_attack = false;
    // Shrink to empty but keep the slot's float storage: absent slots
    // look exactly like freshly-built ones, arrived slots re-fill the
    // retained capacity below.
    out[i].gradient.assign_zero(0);
  }
  for (const GradientUploadMsg& msg : msgs) {
    if (msg.worker >= workers) {
      util::log_warn() << "net: upload from unknown worker " << msg.worker
                       << " ignored";
      continue;
    }
    fl::Upload& u = out[msg.worker];
    u.samples = static_cast<std::size_t>(msg.samples);
    // The single server-side densification point: sparse uploads become
    // dense gradients here, so the assessment pipeline (and every replica)
    // only ever sees the canonical dense form. densify_into reuses the
    // slot's gradient storage round over round.
    msg.densify_into(u.gradient);
    u.arrived = true;
    u.ground_truth_attack = msg.ground_truth_attack != 0;
  }
}

std::vector<fl::Upload> canonicalize_uploads(
    std::span<const GradientUploadMsg> msgs, std::size_t workers) {
  std::vector<fl::Upload> uploads;
  canonicalize_uploads_into(msgs, workers, uploads);
  return uploads;
}

std::string parameter_hash(std::span<const float> params) {
  // Hashes the floats' bytes where they lie, without a copy.
  return chain::to_hex(chain::sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(params.data()),
      params.size_bytes())));
}

// ---------------------------------------------------------------------------
// WorkerNode
// ---------------------------------------------------------------------------

WorkerNode::WorkerNode(std::unique_ptr<fl::Worker> worker,
                       std::unique_ptr<Endpoint> endpoint, Topology topology,
                       NodeTimeouts timeouts, std::uint32_t supported_codecs,
                       WorkerAuditConfig audit)
    : worker_(std::move(worker)), endpoint_(std::move(endpoint)),
      topology_(topology), timeouts_(timeouts),
      supported_codecs_(supported_codecs), audit_(audit) {
  if (!worker_ || !endpoint_) {
    throw std::invalid_argument("WorkerNode: null worker or endpoint");
  }
  if (!fl::codec_in(supported_codecs_, fl::Codec::kDense)) {
    throw std::invalid_argument(
        "WorkerNode: codec mask must include kDense (negotiation fallback)");
  }
  if (audit_.enabled) {
    auditor_.emplace(audit_.key_seed, topology_.workers, topology_.servers);
  }
  tracer_ = NodeTracer::for_node(endpoint_->address());
}

void WorkerNode::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  endpoint_->close();
}

void WorkerNode::send_audit_query(std::uint64_t round, std::uint32_t server,
                                  std::uint64_t parent_span) {
  AuditQueryMsg query;
  query.round = round;
  query.worker = endpoint_->address();
  query.token = round;
  query.kind = static_cast<std::uint8_t>(chain::RecordKind::kReputation);
  // Proof caching: the server only ships the committed headers past this
  // worker's verified anchor.
  query.last_verified_index = auditor_->verified_count();
  send_or_log(*endpoint_, tracer_, topology_.server_key(server), query, round,
              parent_span);
}

void WorkerNode::retry_audit() {
  if (!pending_audit_) return;
  if (pending_audit_->tried >= topology_.servers) {
    util::log_warn() << "net: worker " << endpoint_->address()
                     << " audit query for round " << pending_audit_->round
                     << " unanswered by every server, giving up";
    pending_audit_.reset();
    return;
  }
  // The last server never answered (crashed, or mid-election): any server
  // holds the committed prefix, so round-robin to the next one.
  pending_audit_->cursor = (pending_audit_->cursor + 1) % topology_.servers;
  ++pending_audit_->tried;
  pending_audit_->deadline =
      std::chrono::steady_clock::now() + timeouts_.liveness;
  send_audit_query(pending_audit_->round, pending_audit_->cursor, 0);
}

void WorkerNode::run() {
  current_lead_ = topology_.lead_key();
  // Anything but the JoinAck is stray before the worker has joined.
  const auto ack = join_lead(
      *endpoint_, tracer_, current_lead_,
      JoinMsg{endpoint_->address(), NodeRole::kWorker, supported_codecs_},
      timeouts_.join, stop_, "WorkerNode", [](const Envelope&) {});
  if (!ack) return;
  upload_codec_ = static_cast<fl::Codec>(ack->upload_codec);
  keep_fraction_ = ack->keep_fraction;
  total_rounds_ = ack->rounds;

  // Event loop with a liveness side-channel: wake at the heartbeat
  // interval, ping the current lead so it can tell "slow" from "dead",
  // and exit once nothing has been heard for four phases — long enough to
  // sit out an executor election (detection plus backoff plus votes), not
  // so long a dissolved federation strands the process.
  std::uint64_t liveness_token = kLivenessTokenBase;
  auto last_traffic = std::chrono::steady_clock::now();
  auto last_heartbeat = last_traffic;
  // Set when a Leave arrives while an audit is still in flight: under
  // executor rotation the final rounds can close within milliseconds,
  // so the Leave (sent by the last executor) may overtake a proof still
  // travelling on another server's link. Linger until the pending audit
  // resolves — retry_audit keeps round-robining and gives up once every
  // server has stayed silent — bounded by this backstop deadline.
  std::optional<std::chrono::steady_clock::time_point> leave_deadline;
  while (!stop_.load(std::memory_order_relaxed)) {
    const auto now = std::chrono::steady_clock::now();
    if (leave_deadline && (!pending_audit_ || now >= *leave_deadline)) break;
    if (now - last_traffic > 4 * timeouts_.phase) {
      // Idle timeout without a Leave: the federation went away.
      util::log_warn() << "net: worker " << endpoint_->address()
                       << " timed out waiting for traffic, exiting";
      break;
    }
    if (now - last_heartbeat >= timeouts_.heartbeat) {
      last_heartbeat = now;
      try {
        endpoint_->send_msg(
            current_lead_,
            HeartbeatMsg{endpoint_->address(), liveness_token++, 0});
      } catch (const std::exception& e) {
        util::log_debug() << "net: worker " << endpoint_->address()
                          << " heartbeat failed: " << e.what();
      }
    }
    if (pending_audit_ && now >= pending_audit_->deadline) retry_audit();
    auto env = endpoint_->recv(timeouts_.heartbeat);
    if (!env) continue;
    last_traffic = std::chrono::steady_clock::now();
    switch (env->type) {
      case MessageType::kModelBroadcast:
        // Whoever fans out θ is the executor: re-home liveness traffic.
        if (env->from >= topology_.workers) current_lead_ = env->from;
        handle_broadcast(decode_payload<ModelBroadcastMsg>(env->payload),
                         env->has_trace ? env->trace.span_id : 0);
        note_handled(tracer_, *env, last_traffic);
        break;
      case MessageType::kAssessmentResult: {
        if (env->from >= topology_.workers) current_lead_ = env->from;
        const auto msg = decode_payload<AssessmentResultMsg>(env->payload);
        for (const WorkerAssessment& wa : msg.workers) {
          if (wa.worker == endpoint_->address()) {
            observed_rewards_.push_back(wa.reward);
          }
        }
        // Audit the round that just closed: ask for a Merkle inclusion
        // proof of this worker's reputation record. The final round is
        // skipped — the executor tears the federation down right after
        // the last assessment, so the reply window only exists while
        // another round is being driven. First try aims at the current
        // lead; retry_audit round-robins to the other servers (any of
        // them holds the committed prefix) if it stays silent.
        if (audit_.enabled && msg.round + 1 < total_rounds_) {
          const std::uint32_t lead_index =
              current_lead_ >= topology_.workers
                  ? static_cast<std::uint32_t>(current_lead_ -
                                               topology_.workers)
                  : 0;
          pending_audit_ = PendingAudit{
              msg.round,
              std::chrono::steady_clock::now() + timeouts_.liveness, 1,
              lead_index};
          send_audit_query(msg.round, lead_index,
                           env->has_trace ? env->trace.span_id : 0);
        }
        note_handled(tracer_, *env, last_traffic);
        break;
      }
      case MessageType::kAuditProof: {
        const auto msg = decode_payload<AuditProofMsg>(env->payload);
        if (audit_.enabled && msg.worker == endpoint_->address()) {
          const chain::AuditProofBundle& bundle = msg.bundle;
          const bool verified =
              bundle.found && bundle.record.subject == endpoint_->address() &&
              bundle.record.round == msg.token &&
              bundle.record.kind == chain::RecordKind::kReputation &&
              auditor_->verify(bundle);
          audit_outcomes_.push_back({msg.token, verified});
          if (!verified) {
            util::log_warn() << "net: worker " << endpoint_->address()
                             << " audit proof for round " << msg.token
                             << " FAILED verification";
          }
          if (pending_audit_ && pending_audit_->round == msg.token) {
            pending_audit_.reset();
          }
        }
        note_handled(tracer_, *env, last_traffic);
        break;
      }
      case MessageType::kHeartbeat: {
        // Servers only echo: the echo of this worker's round ping feeds
        // net.rtt_ms.
        const auto hb = decode_payload<HeartbeatMsg>(env->payload);
        const auto it = ping_sent_.find(hb.token);
        if (hb.echo == 1 && it != ping_sent_.end()) {
          NetMetrics::global().rtt_ms->observe(elapsed_ms(it->second));
          ping_sent_.erase(it);
        }
        break;
      }
      case MessageType::kLeave:
        if (!pending_audit_) return;
        leave_deadline =
            now + timeouts_.liveness * (topology_.servers + 1);
        break;
      default:
        break;  // stray control traffic
    }
  }
}

void WorkerNode::handle_broadcast(const ModelBroadcastMsg& msg,
                                  std::uint64_t parent_span) {
  // Duplicate broadcast (a re-elected executor re-driving the round):
  // re-send the cached upload instead of retraining — retraining would
  // advance the local RNG and fork this worker off the deterministic
  // reference sequence.
  if (has_trained_ && msg.round < last_trained_round_) return;  // stale
  if (has_trained_ && msg.round == last_trained_round_) {
    for (NodeKey server : topology_.server_keys()) {
      send_or_log(*endpoint_, tracer_, server, cached_upload_, msg.round,
                  parent_span);
    }
    try {
      endpoint_->send_msg(current_lead_,
                          HeartbeatMsg{endpoint_->address(), msg.round, 0});
    } catch (const std::exception&) {
    }
    return;
  }
  // Materialize θ_t: a dense broadcast replaces the local replica, a
  // delta patches it — but only against the exact baseline the lead
  // encoded it from. A mismatched baseline (the previous broadcast never
  // arrived, or a restart lost params_) is dropped without an ack, so the
  // lead keeps re-basing on the round we actually hold until a dense
  // fallback re-homes us.
  if (msg.codec == static_cast<std::uint8_t>(fl::Codec::kDelta)) {
    if (!has_params_ || params_round_ != msg.base_round ||
        params_.size() != msg.delta.dense_size) {
      util::log_warn() << "net: worker " << endpoint_->address()
                       << " cannot apply delta broadcast for round "
                       << msg.round << " (base " << msg.base_round
                       << ", have "
                       << (has_params_ ? std::to_string(params_round_)
                                       : std::string("none"))
                       << "), dropping";
      return;
    }
    msg.delta.apply_to(params_);
  } else {
    params_ = nn::parse_checkpoint(msg.checkpoint).parameters;
  }
  has_params_ = true;
  params_round_ = msg.round;

  fl::Upload upload = worker_->make_upload(params_);

  // Built in place as the cached upload: a duplicate broadcast re-sends
  // these exact bytes.
  GradientUploadMsg& out = cached_upload_;
  out = GradientUploadMsg{};
  out.round = msg.round;
  out.worker = endpoint_->address();
  out.samples = upload.samples;
  out.ground_truth_attack = upload.ground_truth_attack ? 1 : 0;
  out.codec = static_cast<std::uint8_t>(upload_codec_);
  if (upload_codec_ == fl::Codec::kTopK) {
    out.sparse = fl::topk_compress(upload.gradient.flat(), keep_fraction_);
  } else {
    out.gradient.assign(upload.gradient.flat().begin(),
                        upload.gradient.flat().end());
  }
  has_trained_ = true;
  last_trained_round_ = msg.round;
  for (NodeKey server : topology_.server_keys()) {
    // One unreachable server must not kill the worker: the lead's quorum
    // path absorbs the missing upload.
    send_or_log(*endpoint_, tracer_, server, out, msg.round, parent_span);
  }
  // Ping the lead once per round; the echo feeds net.rtt_ms.
  ping_sent_[msg.round] = std::chrono::steady_clock::now();
  try {
    endpoint_->send_msg(current_lead_,
                        HeartbeatMsg{endpoint_->address(), msg.round, 0});
  } catch (const std::exception&) {
    ping_sent_.erase(msg.round);
  }
}

// ---------------------------------------------------------------------------
// ServerNode
// ---------------------------------------------------------------------------

ServerNode::ServerNode(ServerNodeConfig config,
                       std::unique_ptr<core::FiflEngine> engine,
                       std::unique_ptr<nn::Sequential> global_model,
                       std::unique_ptr<Endpoint> endpoint, Topology topology)
    : config_(config), engine_(std::move(engine)),
      global_model_(std::move(global_model)), endpoint_(std::move(endpoint)),
      topology_(topology) {
  if (!engine_ || !endpoint_) {
    throw std::invalid_argument("ServerNode: null engine or endpoint");
  }
  if (config_.server_index >= topology_.servers) {
    throw std::invalid_argument("ServerNode: server index out of range");
  }
  if ((config_.rotate_executor || config_.failover) &&
      !config_.replicate_ledger) {
    throw std::invalid_argument(
        "ServerNode: rotation/failover requires replicate_ledger");
  }
  if (is_lead() && !global_model_) {
    throw std::invalid_argument(
        "ServerNode: the bootstrap lead owns the global model");
  }
  if ((config_.rotate_executor || config_.failover) && !global_model_) {
    throw std::invalid_argument(
        "ServerNode: rotation/failover needs a global model on every server");
  }
  if (config_.replicate_ledger) {
    replicated_ = std::make_unique<chain::ReplicatedLedger>(
        &engine_->ledger(), config_.ledger_key_seed, topology_.workers,
        topology_.servers, topology_.server_key(config_.server_index));
  }
  tracer_ = NodeTracer::for_node(endpoint_->address());
}

void ServerNode::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  endpoint_->close();
}

void ServerNode::run() {
  if (is_lead()) {
    await_federation();
    // The bootstrap lead's clock is the merged timeline's reference.
    if (tracer_.tracing()) tracer_.clock(0, 0);
  } else if (const auto ack = join_lead(
                 *endpoint_, tracer_, topology_.lead_key(),
                 JoinMsg{endpoint_->address(), NodeRole::kServer},
                 config_.timeouts.join, stop_, "ServerNode",
                 [this](const Envelope& env) { handle_control(env); })) {
    // A follower that may be elected executor must know when the run
    // ends; the JoinAck carries the lead's round budget.
    if (config_.rounds == 0) config_.rounds = ack->rounds;
  }
  // Role dispatcher: rotation, elections, and demotions move the executor
  // role at runtime; each sub-loop returns whenever the role flips.
  while (!done_ && !stop_.load(std::memory_order_relaxed)) {
    if (is_executor()) {
      run_executor();
    } else {
      run_follower();
    }
  }
}

std::optional<Envelope> ServerNode::step(std::chrono::milliseconds wait) {
  std::optional<Envelope> env = endpoint_->recv(wait);
  if (env) {
    last_recv_ = std::chrono::steady_clock::now();
    handle_control(*env);
  }
  return env;
}

template <typename Done>
bool ServerNode::wait_until(std::chrono::steady_clock::time_point deadline,
                            Done done) {
  while (!done()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0 || stop_.load(std::memory_order_relaxed)) {
      return false;
    }
    // Wake at least once per heartbeat, so a predicate with a clock in it
    // (liveness scan, re-send timer) runs even while the link is silent.
    step(std::min(left, config_.timeouts.heartbeat));
  }
  return true;
}

void ServerNode::note_worker_traffic(NodeKey from) {
  if (from >= topology_.workers) return;
  last_seen_[from] = std::chrono::steady_clock::now();
}

void ServerNode::handle_control(const Envelope& envelope) {
  const auto handle_start = std::chrono::steady_clock::now();
  note_worker_traffic(envelope.from);
  switch (envelope.type) {
    case MessageType::kGradientUpload:
      intake_upload(decode_payload<GradientUploadMsg>(envelope.payload));
      break;
    case MessageType::kJoin: {
      const auto join = decode_payload<JoinMsg>(envelope.payload);
      if (is_lead()) {
        JoinAckMsg ack;
        ack.node = join.node;
        ack.workers = topology_.workers;
        ack.servers = topology_.servers;
        ack.param_count =
            global_model_ ? global_model_->parameter_count() : 0;
        ack.rounds = config_.rounds;
        if (join.role == NodeRole::kWorker) {
          ++joined_workers_;
          // Per-worker codec negotiation: the policy's preference wins iff
          // the worker advertised it; kDense otherwise. Mixed-codec
          // clusters fall out of this naturally.
          fl::Codec up = fl::Codec::kDense;
          if (config_.compression.upload == fl::Codec::kTopK &&
              fl::codec_in(join.codecs, fl::Codec::kTopK)) {
            up = fl::Codec::kTopK;
          }
          fl::Codec bc = fl::Codec::kDense;
          if (config_.compression.broadcast == fl::Codec::kDelta &&
              fl::codec_in(join.codecs, fl::Codec::kDelta)) {
            bc = fl::Codec::kDelta;
          }
          peer_broadcast_codec_[join.node] = bc;
          ack.upload_codec = static_cast<std::uint8_t>(up);
          ack.broadcast_codec = static_cast<std::uint8_t>(bc);
          ack.keep_fraction = up == fl::Codec::kTopK
                                  ? config_.compression.topk_keep_fraction
                                  : 1.0;
        } else {
          ++joined_servers_;
        }
        if (tracer_.tracing() && (join.features & kFeatureTrace) != 0) {
          // Both sides advertised tracing: answer with this (reference)
          // clock so the joiner can estimate its skew from the RTT.
          ack.features = kFeatureTrace;
          ack.clock_us = trace_now_us();
        }
        traced_send(*endpoint_, tracer_, envelope.from, ack, 0,
                    envelope.has_trace ? envelope.trace.span_id : 0);
      }
      break;
    }
    case MessageType::kHeartbeat: {
      auto hb = decode_payload<HeartbeatMsg>(envelope.payload);
      if (hb.echo == 0) {
        // A worker's per-round RTT ping doubles as a broadcast ack: tokens
        // below kLivenessTokenBase are the round number whose θ it holds.
        if (envelope.from < topology_.workers &&
            hb.token < kLivenessTokenBase) {
          note_broadcast_ack(envelope.from, hb.token);
        }
        try {
          endpoint_->send_msg(envelope.from,
                              HeartbeatMsg{endpoint_->address(), hb.token, 1});
        } catch (const std::exception&) {
          // An unreachable pinger is the liveness machinery's problem.
        }
      }
      break;
    }
    case MessageType::kSliceAggregate: {
      auto slice = decode_payload<SliceAggregateMsg>(envelope.payload);
      const std::uint64_t round = slice.round;
      pending_slices_[round][slice.server_index] = std::move(slice);
      break;
    }
    case MessageType::kRoundSummary: {
      // Buffer even while holding the executor role: during a rotation
      // handoff the successor can finish its whole round before this node
      // leaves its own round's tail (slice wait, commit wait, assessment
      // fan-out), and dropping that summary here would silently diverge
      // this replica. The follower drain discards stale rounds anyway.
      auto summary = decode_payload<RoundSummaryMsg>(envelope.payload);
      summary_sender_[summary.round] = envelope.from;
      pending_summaries_[summary.round] = std::move(summary);
      break;
    }
    case MessageType::kBlockProposal: {
      if (replicated_) {
        auto proposal = decode_payload<BlockProposalMsg>(envelope.payload);
        // Buffer only (executor role included — see kRoundSummary):
        // voting waits until this replica has sealed the block itself
        // (run_follower drains after each summary).
        pending_proposals_[proposal.header.index] = std::move(proposal);
      }
      break;
    }
    case MessageType::kBlockVote: {
      if (replicated_) {
        apply_block_vote(decode_payload<BlockVoteMsg>(envelope.payload));
      }
      break;
    }
    case MessageType::kAuditQuery: {
      // Any server answers from its committed prefix — a worker whose
      // first query hit a crashed lead retries against the followers. A
      // replica that has not committed the queried round yet (diverged,
      // or simply behind across a handoff) stays silent instead of
      // proving: the worker's retry finds a server that can.
      if (replicated_) {
        const auto query = decode_payload<AuditQueryMsg>(envelope.payload);
        if (!replicated_->committed(query.round)) break;
        const AuditProofMsg proof{
            query.round, query.worker, query.token,
            replicated_->prove(static_cast<chain::RecordKind>(query.kind),
                               query.round, query.worker,
                               query.last_verified_index)};
        send_or_log(*endpoint_, tracer_, envelope.from, proof, query.round,
                    envelope.has_trace ? envelope.trace.span_id : 0);
      }
      break;
    }
    case MessageType::kViewChange: {
      if (config_.failover && replicated_) {
        handle_view_change(decode_payload<ViewChangeMsg>(envelope.payload));
      }
      break;
    }
    case MessageType::kViewChangeVote: {
      if (config_.failover && replicated_) {
        election_votes_.push_back(
            decode_payload<ViewChangeVoteMsg>(envelope.payload));
      }
      break;
    }
    case MessageType::kChainSyncRequest: {
      if (replicated_) {
        serve_chain_sync(decode_payload<ChainSyncRequestMsg>(envelope.payload),
                         envelope.from);
      }
      break;
    }
    case MessageType::kChainSyncResponse:
      // Only a pending request_chain_sync takes a response: a stray or
      // late one must not mutate the replica.
      if (sync_pending_) {
        sync_response_ =
            decode_payload<ChainSyncResponseMsg>(envelope.payload);
      }
      break;
    case MessageType::kLeave:
      leave_received_ = true;
      break;
    default:
      break;
  }
  note_handled(tracer_, envelope, handle_start);
}

void ServerNode::intake_upload(GradientUploadMsg msg) {
  auto& metrics = NetMetrics::global();
  if (is_executor()) {
    note_worker_traffic(msg.worker);
    if (dead_workers_.count(msg.worker) != 0) {
      // A declared-dead worker is speaking again: its uploads stay
      // rejected for the round in flight (the roster already shrank
      // around it), but it re-homes at the next ModelBroadcast and
      // catches up from there.
      metrics.dead_uploads->inc();
      if (revive_pending_.insert(msg.worker).second) {
        metrics.worker_rejoins->inc();
        util::log_info() << "net: dead worker " << msg.worker
                         << " is back, re-homing at next broadcast";
      }
      return;
    }
    // An upload for round r proves the worker trained on θ_r, so it
    // doubles as a broadcast ack for delta re-basing.
    note_broadcast_ack(msg.worker, msg.round);
    if (msg.round > next_round_ ||
        (collect_open_ && msg.round == next_round_)) {
      pending_uploads_[msg.round][msg.worker] = std::move(msg);
      return;
    }
  } else if (msg.round >= next_round_) {
    // A worker can race ahead of a lagging follower: hold the upload
    // until its round's summary.
    pending_uploads_[msg.round][msg.worker] = std::move(msg);
    return;
  }
  // An upload for a round this server already closed.
  metrics.late_uploads->inc();
  util::log_debug() << "net: late upload from worker " << msg.worker
                    << " for round " << msg.round << " (current "
                    << next_round_ << ")";
}

void ServerNode::await_federation() {
  const bool joined = wait_until(
      std::chrono::steady_clock::now() + config_.timeouts.join, [this] {
        return joined_workers_ >= topology_.workers &&
               joined_servers_ + 1 >= topology_.servers;
      });
  if (!joined && !stop_.load(std::memory_order_relaxed)) {
    throw std::runtime_error(
        "lead: join phase timed out (" + std::to_string(joined_workers_) +
        "/" + std::to_string(topology_.workers) + " workers, " +
        std::to_string(joined_servers_ + 1) + "/" +
        std::to_string(topology_.servers) + " servers)");
  }
}

void ServerNode::collect_uploads(
    std::uint64_t round, std::chrono::steady_clock::time_point deadline) {
  auto& metrics = NetMetrics::global();
  // Route buffered-ahead uploads through the same intake as live ones, so
  // a dead worker's early upload still counts as "spoke again".
  std::map<std::uint32_t, GradientUploadMsg> buffered;
  if (auto it = pending_uploads_.find(round); it != pending_uploads_.end()) {
    buffered = std::move(it->second);
    pending_uploads_.erase(it);
  }
  collect_open_ = true;
  for (auto& [worker, msg] : buffered) intake_upload(std::move(msg));
  wait_until(deadline, [&] {
    if (leave_received_) return true;
    // Prune the roster: silence longer than the liveness window means the
    // worker process is gone, not slow. Its slot is given up immediately
    // so a crashed worker costs one liveness window, not a full phase
    // timeout every round.
    const auto now = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < topology_.workers; ++i) {
      if (dead_workers_.count(i) != 0) continue;
      const auto seen = last_seen_.find(i);
      if (seen != last_seen_.end() &&
          now - seen->second > config_.timeouts.liveness) {
        dead_workers_.insert(i);
        // Forget its broadcast ack: a rejoin re-bases on a dense
        // checkpoint instead of a delta against θ it may have lost.
        acked_round_.erase(i);
        metrics.dropped_workers->inc();
        tracer_.note(obs::FlightEventKind::kDeadWorker, i, 0, round);
        util::log_warn() << "net: server " << endpoint_->address()
                         << " declared worker " << i
                         << " dead (silent beyond the liveness window)";
      }
    }
    // Done once every live worker has a slot; missing workers become
    // uncertain events at the deadline.
    const auto& slots = pending_uploads_[round];
    for (std::uint32_t i = 0; i < topology_.workers; ++i) {
      if (dead_workers_.count(i) == 0 && slots.count(i) == 0) return false;
    }
    return true;
  });
  collect_open_ = false;
}

void ServerNode::run_executor() {
  auto& metrics = NetMetrics::global();
  const std::uint32_t self = config_.server_index;

  while (next_round_ < config_.rounds &&
         !stop_.load(std::memory_order_relaxed)) {
    const std::uint64_t r = next_round_;
    const CounterSnapshot net_before = CounterSnapshot::take();
    const auto train_start = std::chrono::steady_clock::now();
    broadcast_round(r, train_start);

    // Collect uploads (the networked analogue of local_train + channel).
    const auto collect_start = std::chrono::steady_clock::now();
    collect_uploads(r, collect_start + config_.timeouts.phase);
    if (stop_.load(std::memory_order_relaxed)) return;
    const double collect_ms = elapsed_ms(train_start);
    note_phase(tracer_, metrics.phase_collect_ms, "collect", r, collect_start);
    if (!quorum_gate(r, pending_uploads_[r].size())) return;

    // The summary names the next round's executor: under rotation the
    // next live server, otherwise this one (the field doubles as the "who
    // is the lead right now" signal rejoining nodes re-home on).
    const std::uint32_t next_executor =
        (config_.rotate_executor && r + 1 < config_.rounds)
            ? next_live_server(self)
            : self;
    const auto assess_start = std::chrono::steady_clock::now();
    const std::vector<GradientUploadMsg> msgs =
        publish_summary(r, next_executor);

    // Full pipeline on the executor's replica; followers re-derive the
    // same sealed block and endorse it with signed votes — the executor
    // never ships a bare "trust me".
    canonicalize_uploads_into(msgs, topology_.workers, upload_scratch_);
    const std::vector<fl::Upload>& uploads = upload_scratch_;
    const core::RoundReport report = engine_->process_round(uploads);
    if (replicated_) propose_block(r);
    verify_slices(r, report);
    if (replicated_ && !replicated_->committed(r) && !await_ledger_commit(r)) {
      return;  // demoted (a successor re-drives r) or stopped
    }

    // θ ← θ − η·G̃ — the step FederatedTrainer takes, through the same
    // function with the engine's G̃ (the follower slices were just proven
    // bitwise equal).
    fl::apply_gradient_step(*global_model_, report.global_gradient,
                            config_.global_learning_rate);
    theta_round_ = r + 1;
    publish_assessment(r, report, uploads);
    note_phase(tracer_, metrics.phase_assess_ms, "assess", r, assess_start);
    record_round(r, report, uploads, msgs.size(), collect_ms, net_before);
    next_round_ = r + 1;

    // Rotation handoff: the summary already named the successor; this
    // node rejoins the round loop as a follower and the successor assumes
    // the role once it holds block r committed (chain-head handoff).
    if (next_executor != self) {
      executor_index_ = next_executor;
      util::log_info() << "net: server " << endpoint_->address()
                       << " hands the executor role to server "
                       << next_executor << " for round " << r + 1;
      return;
    }
  }
  if (stop_.load(std::memory_order_relaxed)) return;
  done_ = true;

  // Dissolve the federation (dead workers already exited on their own).
  for (NodeKey node = 0; node < topology_.workers + topology_.servers;
       ++node) {
    if (node == endpoint_->address() || dead_workers_.count(node) != 0) {
      continue;
    }
    try {
      endpoint_->send_msg(node,
                          LeaveMsg{endpoint_->address(), "training complete"});
    } catch (const std::exception&) {
      // A node that already dropped its connection is fine to skip.
    }
  }
}

void ServerNode::broadcast_round(std::uint64_t r,
                                 std::chrono::steady_clock::time_point start) {
  // Re-home workers that spoke again after being declared dead: they
  // rejoin the roster exactly at a broadcast, so they catch up from the
  // current θ and never land mid-round without a model.
  for (NodeKey worker : revive_pending_) {
    if (dead_workers_.erase(worker) != 0) {
      util::log_info() << "net: worker " << worker << " rejoined for round "
                       << r;
    }
  }
  revive_pending_.clear();

  // Broadcast θ_t to the live roster; every live worker's liveness
  // window restarts here so a long collect cannot starve it. Workers
  // that negotiated kDelta get a sparse update against the last θ they
  // acknowledged when that beats the dense checkpoint. Workers whose
  // upload for r is already buffered (this executor took over a round
  // the old one had broadcast) are skipped — they trained this round
  // and a duplicate broadcast would only cost a cached re-upload.
  ModelBroadcastMsg broadcast;
  broadcast.round = r;
  broadcast.checkpoint =
      nn::checkpoint_bytes(*global_model_, "round-" + std::to_string(r));
  theta_.resize(global_model_->parameter_count());
  global_model_->flatten_parameters_into(theta_);
  const std::span<const float> theta = theta_;
  std::map<std::uint64_t, std::optional<ModelBroadcastMsg>> delta_cache;
  const auto redriven = pending_uploads_.find(r);
  for (std::uint32_t i = 0; i < topology_.workers; ++i) {
    if (dead_workers_.count(i) != 0) continue;
    last_seen_[i] = start;
    if (redriven != pending_uploads_.end() &&
        redriven->second.count(i) != 0) {
      continue;
    }
    send_or_log(*endpoint_, tracer_, topology_.worker_key(i),
                broadcast_for(i, broadcast, theta, delta_cache), r);
  }
  note_phase(tracer_, NetMetrics::global().phase_broadcast_ms, "broadcast", r,
             start);
  const bool any_delta_peer = std::any_of(
      peer_broadcast_codec_.begin(), peer_broadcast_codec_.end(),
      [](const auto& kv) { return kv.second == fl::Codec::kDelta; });
  if (any_delta_peer) {
    broadcast_history_[r].assign(theta.begin(), theta.end());
    constexpr std::size_t kHistoryDepth = 8;
    while (broadcast_history_.size() > kHistoryDepth) {
      broadcast_history_.erase(broadcast_history_.begin());
    }
  }
}

std::vector<GradientUploadMsg> ServerNode::publish_summary(
    std::uint64_t r, std::uint32_t next_executor) {
  // Publish the counted set so every follower replica feeds its engine the
  // same inputs this one is about to see.
  RoundSummaryMsg summary;
  summary.round = r;
  summary.next_executor = next_executor;
  std::vector<GradientUploadMsg> msgs;
  for (auto& [worker, msg] : pending_uploads_[r]) {
    summary.counted.push_back(worker);
    msgs.push_back(std::move(msg));
  }
  pending_uploads_.erase(r);
  summary.degraded = msgs.size() < topology_.workers ? 1 : 0;
  send_to_other_servers(summary, r);
  return msgs;
}

void ServerNode::publish_assessment(std::uint64_t r,
                                    const core::RoundReport& report,
                                    const std::vector<fl::Upload>& uploads) {
  // Every worker's verdict plus this round's sealed audit records.
  AssessmentResultMsg assessment;
  assessment.round = r;
  assessment.degraded = report.degraded ? 1 : 0;
  assessment.fairness = report.fairness;
  assessment.workers.reserve(topology_.workers);
  for (std::uint32_t i = 0; i < topology_.workers; ++i) {
    WorkerAssessment wa;
    wa.worker = i;
    wa.arrived = uploads[i].arrived ? 1 : 0;
    wa.accepted = report.detection.accepted[i] ? 1 : 0;
    wa.uncertain = report.detection.uncertain[i] ? 1 : 0;
    wa.score = report.detection.scores[i];
    wa.reputation = report.reputations[i];
    wa.contribution = report.contribution.contributions[i];
    wa.reward = report.rewards[i];
    assessment.workers.push_back(wa);
  }
  assessment.records = engine_->ledger().query(std::nullopt, r, std::nullopt);
  for (std::uint32_t i = 0; i < topology_.workers; ++i) {
    if (dead_workers_.count(i) != 0) continue;
    send_or_log(*endpoint_, tracer_, topology_.worker_key(i), assessment, r);
  }
}

void ServerNode::record_round(std::uint64_t r, const core::RoundReport& report,
                              const std::vector<fl::Upload>& uploads,
                              std::size_t counted, double collect_ms,
                              const CounterSnapshot& net_before) {
  NetRoundResult result;
  result.round = r;
  // θ changed at the apply step; the broadcast is long sent, so the same
  // buffer takes the updated parameters. The digest is timed as the
  // `record` phase.
  const auto record_start = std::chrono::steady_clock::now();
  theta_.resize(global_model_->parameter_count());
  global_model_->flatten_parameters_into(theta_);
  result.model_hash = parameter_hash(theta_);
  note_phase(tracer_, NetMetrics::global().phase_record_ms, "record", r,
             record_start);
  result.degraded = report.degraded;
  result.fairness = report.fairness;
  result.reputations = report.reputations;
  result.rewards = report.rewards;
  result.counted = counted;
  result.live_workers =
      topology_.workers -
      std::min<std::size_t>(dead_workers_.size(), topology_.workers);
  result.arrived.reserve(uploads.size());
  for (const fl::Upload& u : uploads) {
    result.arrived.push_back(u.arrived ? 1 : 0);
  }
  core::RoundRecord record;
  core::summarize_report(report, uploads, record);
  result.accepted = record.accepted;
  result.rejected = record.rejected;
  result.uncertain = record.uncertain;

  obs::RoundTraceRecorder* recorder =
      trace_recorder_ ? trace_recorder_ : &obs::RoundTraceRecorder::global();
  if (recorder->enabled()) {
    obs::RoundTrace trace = core::make_round_trace(r, report, uploads);
    // The broadcast->collect window plays the role of local_train +
    // channel; the wire has no separate channel phase.
    trace.phases.local_train_ms = collect_ms;
    trace.phases.channel_ms = 0.0;
    trace.phases.detect_ms = report.detect_ms;
    trace.phases.aggregate_ms = report.aggregate_ms;
    trace.phases.ledger_ms = report.ledger_ms;
    trace.net = net_before.delta_since();
    trace.has_net = true;
    recorder->record(trace);
  }
  if (round_callback_) round_callback_(result, theta_);
  results_.push_back(std::move(result));
}

bool ServerNode::quorum_gate(std::uint64_t r, std::size_t counted) {
  const std::size_t quorum_min = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(config_.quorum.min_fraction *
                                            topology_.workers)));
  if (counted < quorum_min) {
    if (config_.failover) {
      // Losing the worker quorum under failover means *this* server is
      // likely the partitioned side, not the workers: demote to follower
      // instead of killing the run. The counted uploads stay buffered (a
      // successor re-drives r from them).
      util::log_warn() << "net: server " << endpoint_->address()
                       << " lost the worker quorum for round " << r << " ("
                       << counted << " of " << topology_.workers
                       << "), stepping down as executor";
      step_down();
      return false;
    }
    // Abort path: capture the last K events of every node before the
    // exception unwinds the cluster.
    tracer_.note(obs::FlightEventKind::kQuorumAbort, obs::kNoFlightPeer, 0,
                 r, counted);
    obs::FlightRegistry::global().dump("quorum_abort");
    throw std::runtime_error(
        "lead: round " + std::to_string(r) + " below quorum (" +
        std::to_string(counted) + " of " + std::to_string(topology_.workers) +
        " uploads, quorum " + std::to_string(quorum_min) + ")");
  }
  if (counted < topology_.workers) {
    NetMetrics::global().rounds_degraded->inc();
    tracer_.note(obs::FlightEventKind::kDegradedRound, obs::kNoFlightPeer, 0,
                 r, counted);
    util::log_warn() << "net: round " << r << " degraded: " << counted
                     << " of " << topology_.workers << " uploads counted";
  }
  return true;
}

void ServerNode::step_down() {
  // Forget every liveness judgment made while (possibly) partitioned, and
  // mute elections: a truly isolated ex-executor must not propose into
  // the void. Any received envelope lifts the mute.
  dead_workers_.clear();
  revive_pending_.clear();
  last_seen_.clear();
  acked_round_.clear();
  executor_index_ = kUnknownExecutor;
  election_muted_ = true;
}

void ServerNode::propose_block(std::uint64_t b) {
  const chain::SealedBlockHeader& sealed = replicated_->propose(b);
  BlockProposalMsg proposal;
  proposal.round = b;
  proposal.header = sealed.header;
  proposal.executor_sig = sealed.executor_sig;
  proposal.records = engine_->ledger().block(b).records;
  send_to_other_servers(proposal, b);
  drain_pending_votes(b);
}

void ServerNode::verify_slices(std::uint64_t r,
                               const core::RoundReport& report) {
  auto& metrics = NetMetrics::global();
  wait_until(std::chrono::steady_clock::now() + config_.timeouts.phase, [&] {
    return pending_slices_[r].size() + 1 + dead_servers_.size() >=
           topology_.servers;
  });
  for (std::uint32_t j = 0; j < topology_.servers; ++j) {
    if (j == config_.server_index || dead_servers_.count(j) != 0) continue;
    const auto slice_it = pending_slices_[r].find(j);
    if (slice_it == pending_slices_[r].end()) {
      metrics.slice_gaps->inc();
      util::log_warn() << "net: no slice from server " << j << " for round "
                       << r;
      continue;
    }
    const SliceAggregateMsg& slice = slice_it->second;
    if (slice.complete == 0) {
      metrics.slice_gaps->inc();
      util::log_warn() << "net: server " << j
                       << " could not reproduce round " << r
                       << " (incomplete slice)";
      continue;
    }
    const std::span<const float> own =
        engine_->plan().slice(report.global_gradient, j);
    if (slice.offset != engine_->plan().offset(j) ||
        slice.values.size() != own.size() ||
        !std::equal(own.begin(), own.end(), slice.values.begin())) {
      // Byzantine (or broken-replica) divergence: dump every node's
      // recent events before aborting, so the postmortem shows what
      // each replica saw leading up to the mismatched slice.
      tracer_.note(obs::FlightEventKind::kDivergence,
                   topology_.server_key(j),
                   static_cast<std::uint8_t>(MessageType::kSliceAggregate),
                   r);
      obs::FlightRegistry::global().dump("byzantine_divergence");
      throw std::runtime_error("lead: server " + std::to_string(j) +
                               " diverged from the replicated engine on round " +
                               std::to_string(r));
    }
  }
  pending_slices_.erase(r);
}

void ServerNode::run_follower() {
  // A degraded round legitimately silences this link for a full phase
  // (the executor waiting out its collect deadline) and, when our slice
  // was lost, a second one (the slice wait) — so only three phases of
  // unbroken silence mean the federation is actually gone. Under failover
  // the budget stretches to eight: a crashed-and-recovering server hears
  // nothing until the transport revives it.
  const auto silence_budget =
      (config_.failover ? 8 : 3) * config_.timeouts.phase;
  // Executor-progress deadline: a summary or proposal should arrive at
  // least once per round; two phases plus a liveness window absorb the
  // slowest degraded round without false-firing the election.
  const auto progress_budget =
      2 * config_.timeouts.phase + config_.timeouts.liveness;
  auto last_traffic = std::chrono::steady_clock::now();
  auto last_progress = last_traffic;
  while (!leave_received_ && !stop_.load(std::memory_order_relaxed)) {
    if (is_executor()) return;  // elected (or handed off) mid-drain
    const auto now = std::chrono::steady_clock::now();
    if (now - last_traffic > silence_budget) {
      util::log_warn() << "net: server " << endpoint_->address()
                       << " timed out waiting for traffic, exiting";
      done_ = true;
      return;
    }
    if (config_.failover && replicated_ && !election_muted_ &&
        now - last_progress > progress_budget) {
      if (run_election()) return;
      last_progress = std::chrono::steady_clock::now();
    }
    const auto env = step(config_.timeouts.heartbeat);
    if (!env) continue;
    last_traffic = last_recv_;
    if (election_muted_) {
      // The federation is talking to us again: the demotion-era silence
      // is over, re-arm the election clock from scratch.
      election_muted_ = false;
      last_progress = last_traffic;
    }
    if (env->type == MessageType::kRoundSummary ||
        env->type == MessageType::kBlockProposal) {
      last_progress = last_traffic;  // the executor is making progress
    }
    // Run every round whose summary has arrived, strictly in order.
    while (!pending_summaries_.empty() && !leave_received_ &&
           !stop_.load(std::memory_order_relaxed)) {
      auto it = pending_summaries_.begin();
      if (it->first < next_round_) {  // stale duplicate
        summary_sender_.erase(it->first);
        pending_summaries_.erase(it);
        continue;
      }
      if (it->first > next_round_) {
        // A summary went missing. With failover the replica heals itself:
        // replay the committed blocks it skipped from whoever sent the
        // newer summary (the live executor). Without it the replica can
        // never rejoin the deterministic sequence.
        if (config_.failover && replicated_ && !diverged_) {
          const auto sender = summary_sender_.find(it->first);
          const NodeKey target = sender != summary_sender_.end()
                                     ? sender->second
                                     : topology_.lead_key();
          if (!request_chain_sync(target)) break;  // rate-limited / timeout
          continue;  // the sync may have advanced next_round_
        }
        if (!diverged_) {
          diverged_ = true;
          util::log_warn() << "net: server " << endpoint_->address()
                           << " missed summary for round " << next_round_
                           << ", replica diverged";
        }
        next_round_ = it->first;
      }
      const RoundSummaryMsg summary = std::move(it->second);
      const auto sender = summary_sender_.find(summary.round);
      const NodeKey executor = sender != summary_sender_.end()
                                   ? sender->second
                                   : topology_.lead_key();
      summary_sender_.erase(summary.round);
      pending_summaries_.erase(summary.round);
      process_summary(summary, executor);
      pending_uploads_.erase(pending_uploads_.begin(),
                             pending_uploads_.upper_bound(summary.round));
      next_round_ = summary.round + 1;
      last_progress = std::chrono::steady_clock::now();
      // Every block this replica has now sealed can be checked against
      // the executor's proposal and endorsed (or exposed as a fork).
      if (replicated_) follower_vote_on_proposals();
      if (summary.next_executor == config_.server_index && !diverged_ &&
          next_round_ < config_.rounds) {
        // Chain-head handoff: assume the role only once block r is
        // committed locally, so the chain cannot fork across a rotation.
        // A failed wait leaves the executor unknown; the election (or the
        // old executor re-driving) resolves it.
        if (replicated_ && await_handoff_commit(summary.round)) {
          util::log_info() << "net: server " << endpoint_->address()
                           << " takes the executor role for round "
                           << next_round_ << " (rotation handoff)";
          executor_index_ = config_.server_index;
          return;
        }
        executor_index_ = kUnknownExecutor;
        continue;
      }
      if (summary.next_executor < topology_.servers) {
        executor_index_ = summary.next_executor;
      }
    }
    if (replicated_) follower_vote_on_proposals();
  }
  if (leave_received_) done_ = true;
}

void ServerNode::follower_vote_on_proposals() {
  // Votes go to every server, not just the executor: each replica folds
  // the whole federation's endorsements into its own certificate, so any
  // survivor can serve proofs and chain syncs.
  const auto send_vote = [this](const BlockProposalMsg& proposal,
                                const chain::Signature& vote) {
    BlockVoteMsg out;
    out.round = proposal.round;
    out.block_index = proposal.header.index;
    out.block_hash = proposal.header.block_hash;
    out.vote = vote;
    send_to_other_servers(out, proposal.round);
  };
  while (!pending_proposals_.empty()) {
    const auto it = pending_proposals_.begin();
    if (diverged_) {
      // A diverged replica skipped engine rounds; it can no longer attest
      // blocks it never sealed. Dropping the proposal (instead of voting
      // no) keeps the fault crash-shaped: the executor counts a missing
      // vote, not a contradiction.
      pending_proposals_.erase(it);
      continue;
    }
    if (replicated_->committed(it->first)) {
      // A re-proposal of a block this replica already holds committed (a
      // takeover executor rebuilding its certificate): answer with a
      // fresh vote signed over the proposed header, without touching the
      // committed local entry. Skipping instead would starve the new
      // executor's certificate forever — its propose() cleared the votes.
      const BlockProposalMsg proposal = std::move(it->second);
      pending_proposals_.erase(it);
      const chain::SealedBlockHeader* own =
          replicated_->sealed(proposal.header.index);
      if (own != nullptr &&
          own->header.block_hash == proposal.header.block_hash) {
        send_vote(proposal, replicated_->registry().sign(
                                replicated_->self(),
                                proposal.header.canonical_payload()));
      }
      continue;
    }
    if (it->first >= engine_->ledger().block_count()) break;  // not sealed yet
    const BlockProposalMsg proposal = std::move(it->second);
    pending_proposals_.erase(it);
    const std::optional<chain::Signature> vote = replicated_->verify_and_vote(
        proposal.header, proposal.executor_sig, proposal.records);
    if (!vote) {
      // The executor proposed a block this replica's deterministic ledger
      // did not produce: a fork, by construction the strongest Byzantine
      // signal the protocol can emit. Capture everyone's recent events
      // before unwinding.
      tracer_.note(obs::FlightEventKind::kLedgerFork,
                   proposal.executor_sig.signer,
                   static_cast<std::uint8_t>(MessageType::kBlockProposal),
                   proposal.round);
      obs::FlightRegistry::global().dump("ledger_fork");
      throw std::runtime_error(
          "server " + std::to_string(endpoint_->address()) +
          ": proposed block " + std::to_string(proposal.header.index) +
          " contradicts the local replica ledger (fork)");
    }
    send_vote(proposal, *vote);
    drain_pending_votes(proposal.header.index);
  }
}

void ServerNode::apply_block_vote(const BlockVoteMsg& msg) {
  const chain::SealedBlockHeader* entry = replicated_->sealed(msg.block_index);
  if (entry == nullptr || entry->header.block_hash == chain::Digest{}) {
    // The vote raced ahead of this replica's own endorsement/proposal:
    // park it until the entry exists.
    pending_votes_[msg.block_index].push_back(msg);
    return;
  }
  try {
    replicated_->record_vote(msg.block_index, msg.block_hash, msg.vote);
  } catch (const std::exception& e) {
    // A validly signed vote for a *different* block hash at this index:
    // some replica sealed a contradicting history.
    tracer_.note(obs::FlightEventKind::kLedgerFork, msg.vote.signer,
                 static_cast<std::uint8_t>(MessageType::kBlockVote),
                 msg.round);
    obs::FlightRegistry::global().dump("ledger_fork");
    throw std::runtime_error("server " + std::to_string(endpoint_->address()) +
                             ": block vote for round " +
                             std::to_string(msg.round) +
                             " exposes a ledger fork: " + e.what());
  }
}

void ServerNode::drain_pending_votes(std::uint64_t block_index) {
  const auto it = pending_votes_.find(block_index);
  if (it == pending_votes_.end()) return;
  std::vector<BlockVoteMsg> votes = std::move(it->second);
  pending_votes_.erase(it);
  for (const BlockVoteMsg& vote : votes) apply_block_vote(vote);
}

bool ServerNode::await_ledger_commit(std::uint64_t r) {
  const auto start = std::chrono::steady_clock::now();
  if (wait_until(start + config_.timeouts.phase,
                 [&] { return replicated_->committed(r); })) {
    note_phase(tracer_, NetMetrics::global().phase_ledger_commit_ms,
               "ledger_commit", r, start);
    return true;
  }
  if (stop_.load(std::memory_order_relaxed)) return false;
  const chain::SealedBlockHeader* sealed = replicated_->sealed(r);
  const std::uint64_t votes =
      sealed ? 1 + sealed->votes.size() : 0;  // executor counts itself
  if (config_.failover) {
    // No votes arrived within the phase: this executor is the cut-off
    // side (crashed transport, partition) — the followers already hold
    // the round summary and will elect a successor to re-drive r. Step
    // down instead of killing the run. The engine here is one round ahead
    // of the committed chain (block r sealed but unendorsed), so mark the
    // replica diverged: rejoin-by-replay heals it if connectivity
    // returns.
    util::log_warn() << "net: server " << endpoint_->address()
                     << " ledger commit for round " << r
                     << " below quorum (" << votes << " of "
                     << replicated_->quorum()
                     << " endorsements), stepping down as executor";
    diverged_ = true;
    step_down();
    return false;
  }
  tracer_.note(obs::FlightEventKind::kQuorumAbort, obs::kNoFlightPeer,
               static_cast<std::uint8_t>(MessageType::kBlockVote), r, votes);
  obs::FlightRegistry::global().dump("quorum_abort");
  throw std::runtime_error(
      "server " + std::to_string(endpoint_->address()) + ": round " +
      std::to_string(r) + " ledger commit below quorum (" +
      std::to_string(votes) + " of " +
      std::to_string(replicated_->quorum()) + " endorsements)");
}

void ServerNode::process_summary(const RoundSummaryMsg& summary,
                                 NodeKey executor) {
  const std::uint64_t r = summary.round;
  const std::uint32_t j = config_.server_index;

  bool complete = !diverged_;
  if (complete) {
    // Grace-wait for counted uploads that are still in flight behind the
    // summary (the executor saw them; this replica's copies may be
    // delayed). Later summaries buffer for the run loop meanwhile.
    complete = wait_until(
        std::chrono::steady_clock::now() + config_.timeouts.phase, [&] {
          const auto& slots = pending_uploads_[r];
          return leave_received_ ||
                 std::all_of(
                     summary.counted.begin(), summary.counted.end(),
                     [&](std::uint32_t w) { return slots.count(w) != 0; });
        });
    if (leave_received_ || stop_.load(std::memory_order_relaxed)) return;
  }

  SliceAggregateMsg out;
  out.round = r;
  out.server_index = j;
  out.offset = engine_->plan().offset(j);
  if (complete) {
    // Feed the engine exactly the executor's counted set; uploads this
    // replica received beyond it are discarded, workers not listed become
    // absent (uncertain) — byte-identical inputs to the executor's.
    auto& slots = pending_uploads_[r];
    std::vector<GradientUploadMsg> msgs;
    msgs.reserve(summary.counted.size());
    for (std::uint32_t w : summary.counted) msgs.push_back(std::move(slots[w]));
    canonicalize_uploads_into(msgs, topology_.workers, upload_scratch_);
    const std::vector<fl::Upload>& uploads = upload_scratch_;
    const core::RoundReport report = engine_->process_round(uploads);

    // This replica's slice of the aggregated gradient — the paper's
    // polycentric server->lead traffic (Sec. 3.2).
    const std::span<const float> slice =
        engine_->plan().slice(report.global_gradient, j);
    out.complete = 1;
    out.values.assign(slice.begin(), slice.end());

    // θ replica (rotation/failover): the same gradient step the executor
    // applies — bit-identical float ops, so any server can take over the
    // executor role with the executor's exact parameters.
    if (global_model_) {
      fl::apply_gradient_step(*global_model_, report.global_gradient,
                              config_.global_learning_rate);
      theta_round_ = r + 1;
    }
  } else {
    // A counted upload never reached this replica, so it cannot reproduce
    // the executor's engine inputs. Its state is now behind; it answers
    // with an empty incomplete slice and lets the executor count the gap
    // (with failover on, the next summary triggers rejoin-by-replay).
    if (!diverged_) {
      diverged_ = true;
      util::log_warn() << "net: server " << endpoint_->address()
                       << " lacks counted uploads for round " << r
                       << ", replica diverged";
    }
    out.complete = 0;
  }
  send_or_log(*endpoint_, tracer_, executor, out, r);
}

void ServerNode::note_broadcast_ack(NodeKey worker, std::uint64_t round) {
  const auto [it, inserted] = acked_round_.try_emplace(worker, round);
  if (!inserted && it->second < round) it->second = round;
}

const ModelBroadcastMsg& ServerNode::broadcast_for(
    std::uint32_t worker, const ModelBroadcastMsg& dense,
    std::span<const float> theta,
    std::map<std::uint64_t, std::optional<ModelBroadcastMsg>>& delta_cache) {
  const auto codec_it = peer_broadcast_codec_.find(worker);
  if (codec_it == peer_broadcast_codec_.end() ||
      codec_it->second != fl::Codec::kDelta) {
    return dense;
  }
  const auto ack_it = acked_round_.find(worker);
  if (ack_it == acked_round_.end()) return dense;  // never acked: re-base
  const std::uint64_t base = ack_it->second;
  auto cache_it = delta_cache.find(base);
  if (cache_it == delta_cache.end()) {
    // First worker basing on `base` this round: build (or decline) the
    // delta once and cache the decision for the rest of the roster.
    std::optional<ModelBroadcastMsg> built;
    const auto hist_it = broadcast_history_.find(base);
    if (hist_it != broadcast_history_.end() &&
        hist_it->second.size() == theta.size()) {
      fl::SparseVector delta = fl::delta_compress(hist_it->second, theta);
      // Break-even on parameter payload: 5-9 bytes per sparse entry
      // (varint index + f32) against 4 per dense param.
      if (!config_.compression.delta_dense_fallback ||
          delta.wire_bytes() < theta.size() * sizeof(float)) {
        ModelBroadcastMsg msg;
        msg.round = dense.round;
        msg.codec = static_cast<std::uint8_t>(fl::Codec::kDelta);
        msg.base_round = base;
        msg.delta = std::move(delta);
        built = std::move(msg);
      }
    }
    cache_it = delta_cache.emplace(base, std::move(built)).first;
  }
  return cache_it->second ? *cache_it->second : dense;
}

template <typename Msg>
void ServerNode::send_to_other_servers(const Msg& msg, std::uint64_t round) {
  for (std::uint32_t j = 0; j < topology_.servers; ++j) {
    if (j == config_.server_index) continue;
    send_or_log(*endpoint_, tracer_, topology_.server_key(j), msg, round);
  }
}

std::uint32_t ServerNode::next_live_server(std::uint32_t self) const {
  for (std::uint32_t step = 1; step <= topology_.servers; ++step) {
    const std::uint32_t j = (self + step) % topology_.servers;
    if (j == self) break;
    if (dead_servers_.count(j) == 0) return j;
  }
  return self;
}

chain::Digest ServerNode::committed_head() const {
  const std::size_t tip = replicated_->committed_count();
  if (tip == 0) return chain::Digest{};
  return replicated_->sealed(tip - 1)->header.block_hash;
}

void ServerNode::handle_view_change(const ViewChangeMsg& msg) {
  if (msg.proposer_index >= topology_.servers ||
      msg.proposer_index == config_.server_index) {
    return;
  }
  if (msg.sig.signer != topology_.server_key(msg.proposer_index) ||
      !replicated_->registry().verify(msg.sig, msg.canonical_payload())) {
    util::log_warn() << "net: server " << endpoint_->address()
                     << " rejects a view change with a bad signature from "
                        "server "
                     << msg.proposer_index;
    return;
  }
  // One grant per view, and never a grant for a view this node itself is
  // campaigning in — two same-view candidates granting each other would
  // elect two executors.
  if (msg.view <= granted_view_ || msg.view == proposed_view_) return;
  const std::uint64_t own_count = replicated_->committed_count();
  // Grant iff the proposer's committed chain subsumes ours: strictly
  // longer, or equal length with the identical head. An executor never
  // grants — it is, by definition, alive and making progress.
  const bool granted =
      !is_executor() && (msg.committed_count > own_count ||
                         (msg.committed_count == own_count &&
                          msg.head == committed_head()));
  ViewChangeVoteMsg vote;
  vote.round = msg.round;
  vote.view = msg.view;
  vote.proposer_index = msg.proposer_index;
  vote.voter_index = config_.server_index;
  vote.granted = granted ? 1 : 0;
  vote.committed_count = own_count;
  vote.head = committed_head();
  vote.sig =
      replicated_->registry().sign(replicated_->self(), vote.canonical_payload());
  send_or_log(*endpoint_, tracer_, topology_.server_key(msg.proposer_index),
              vote, msg.round);
  if (!granted) return;
  granted_view_ = msg.view;
  view_ = std::max(view_, msg.view);
  // dead_index == proposer_index is the proposer saying "I do not know
  // who died" (it was demoted, not watching) — nothing to record then.
  if (msg.dead_index < topology_.servers &&
      msg.dead_index != config_.server_index &&
      msg.dead_index != msg.proposer_index) {
    dead_servers_.insert(msg.dead_index);
  }
  executor_index_ = msg.proposer_index;
  util::log_info() << "net: server " << endpoint_->address()
                   << " granted view " << msg.view << " to server "
                   << msg.proposer_index;
}

bool ServerNode::run_election() {
  auto& metrics = NetMetrics::global();
  const std::uint32_t self = config_.server_index;
  // Whoever we were waiting on is the casualty. A demoted ex-executor
  // (executor_index_ == kUnknownExecutor) does not know who is in charge,
  // so it reports itself — the sentinel grantors ignore.
  const std::uint32_t dead =
      executor_index_ == kUnknownExecutor ? self : executor_index_;
  if (dead != self) dead_servers_.insert(dead);
  executor_index_ = kUnknownExecutor;
  view_ = std::max(view_, granted_view_) + 1;

  std::vector<std::uint32_t> candidates;
  for (std::uint32_t j = 0; j < topology_.servers; ++j) {
    if (dead_servers_.count(j) == 0) candidates.push_back(j);
  }
  // Reputation-ranked backoff (Sec. 4.2 put to work): the most reputable
  // live server proposes first; ties break toward the lower index. Every
  // replica computes the same ranking from its replicated reputation
  // state, so the backoff slots rarely collide.
  const auto rep_of = [this](std::uint32_t j) {
    const auto& members = engine_->server_members();
    return j < members.size()
               ? engine_->reputation().reputation(members[j])
               : 0.0;
  };
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const double ra = rep_of(a), rb = rep_of(b);
                     if (ra != rb) return ra > rb;
                     return a < b;
                   });
  std::size_t rank = 0;
  while (rank < candidates.size() && candidates[rank] != self) ++rank;
  const auto backoff = rank * config_.timeouts.liveness;
  const auto started = std::chrono::steady_clock::now();
  const auto deadline = started + 2 * config_.timeouts.phase;
  bool proposed = false;
  std::size_t grants = 0;
  election_votes_.clear();
  util::log_warn() << "net: server " << endpoint_->address()
                   << " starts an election for view " << view_
                   << " (executor " << dead << " silent, rank " << rank
                   << ")";

  while (!stop_.load(std::memory_order_relaxed)) {
    // A better-ranked candidate won while we were waiting our slot (the
    // grant re-homed executor_index_ via handle_view_change).
    if (executor_index_ != kUnknownExecutor) return is_executor();
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      tracer_.note(obs::FlightEventKind::kQuorumAbort, obs::kNoFlightPeer,
                   static_cast<std::uint8_t>(MessageType::kViewChange),
                   next_round_, grants);
      obs::FlightRegistry::global().dump("view_change_abort");
      throw std::runtime_error(
          "server " + std::to_string(endpoint_->address()) +
          ": view change for round " + std::to_string(next_round_) +
          " below quorum (" + std::to_string(grants) + " of " +
          std::to_string(replicated_->quorum()) + " grants)");
    }
    if (!proposed && now - started >= backoff) {
      proposed = true;
      proposed_view_ = view_;
      grants = 1;  // our own
      ViewChangeMsg msg;
      msg.round = next_round_;
      msg.view = view_;
      msg.proposer_index = self;
      msg.dead_index = dead;
      msg.committed_count = replicated_->committed_count();
      msg.head = committed_head();
      msg.sig = replicated_->registry().sign(replicated_->self(),
                                             msg.canonical_payload());
      send_to_other_servers(msg, next_round_);
    }
    // Fold in the grant/nack replies handle_control parked for us.
    std::vector<ViewChangeVoteMsg> votes;
    votes.swap(election_votes_);
    for (const ViewChangeVoteMsg& vote : votes) {
      if (!proposed || vote.view != view_ || vote.proposer_index != self ||
          vote.voter_index >= topology_.servers ||
          vote.voter_index == self ||
          vote.sig.signer != topology_.server_key(vote.voter_index) ||
          !replicated_->registry().verify(vote.sig,
                                          vote.canonical_payload())) {
        continue;
      }
      if (vote.granted != 0) {
        ++grants;
        continue;
      }
      if (vote.committed_count > replicated_->committed_count()) {
        // The nack carries a longer committed chain: we are behind, not
        // them. Sync up, then re-campaign in a fresh view.
        if (request_chain_sync(topology_.server_key(vote.voter_index))) {
          view_ = std::max(view_, granted_view_) + 1;
          proposed = false;
          grants = 0;
        }
      }
    }
    if (proposed && grants >= replicated_->quorum()) {
      metrics.view_changes->inc();
      metrics.election_ms->observe(elapsed_ms(started));
      tracer_.note(obs::FlightEventKind::kViewChange,
                   topology_.server_key(dead),
                   static_cast<std::uint8_t>(MessageType::kViewChange),
                   next_round_, view_);
      util::log_warn() << "net: server " << endpoint_->address()
                       << " won the election for view " << view_ << " with "
                       << grants << " grants, taking over as executor";
      executor_index_ = self;
      // Re-propose every block past the committed tip: the dead executor
      // may have sealed (and this replica endorsed) blocks whose quorum
      // certificate it never finished assembling. propose() re-signs and
      // restarts vote collection; the followers answer through the
      // committed-re-vote path if they already hold the block committed.
      const std::uint64_t blocks = engine_->ledger().block_count();
      for (std::uint64_t b = std::min<std::uint64_t>(
               replicated_->committed_count(), blocks - 1);
           b < blocks; ++b) {
        propose_block(b);
      }
      next_round_ = engine_->round();
      return true;
    }
    // Wake by the deadline, not up to a heartbeat past it: survivors
    // start their elections only milliseconds apart, and the first to
    // abort must stop the others before their own deadlines.
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const auto env = step(std::min(left, config_.timeouts.heartbeat));
    if (env && env->type == MessageType::kRoundSummary &&
        env->from >= topology_.workers) {
      // The "dead" executor spoke: it was slow, not gone. Stand down and
      // let run_follower process the summary.
      executor_index_ = env->from - topology_.workers;
      return false;
    }
  }
  return false;
}

bool ServerNode::await_handoff_commit(std::uint64_t r) {
  if (wait_until(std::chrono::steady_clock::now() + config_.timeouts.phase,
                 [&] {
                   follower_vote_on_proposals();
                   return replicated_->committed(r);
                 })) {
    return true;
  }
  if (!stop_.load(std::memory_order_relaxed)) {
    util::log_warn() << "net: server " << endpoint_->address()
                     << " handoff for round " << r
                     << " timed out waiting for the block to commit";
  }
  return false;
}

bool ServerNode::request_chain_sync(NodeKey target) {
  const auto now = std::chrono::steady_clock::now();
  if (now - last_sync_request_ < config_.timeouts.phase) return false;
  last_sync_request_ = now;
  ChainSyncRequestMsg req;
  req.round = next_round_;
  req.server_index = config_.server_index;
  // The committed prefix, not the engine's block count: the engine may
  // hold sealed-but-uncertified blocks whose certificates the dead
  // executor never finished — re-fetching those heals the cert gap too.
  req.from_block = replicated_->committed_count();
  if (!send_or_log(*endpoint_, tracer_, target, req, next_round_)) {
    return false;
  }
  sync_pending_ = true;
  sync_response_.reset();
  auto next_resend = now + config_.timeouts.heartbeat;
  wait_until(now + config_.timeouts.phase, [&] {
    if (sync_response_) return true;
    // Inbound traffic is the strongest signal the link just healed (a
    // recovering node's first delivered message marks the instant its
    // transport came back): pull the next re-send forward so the sync
    // lands while the cluster is still running, not a heartbeat later.
    if (last_recv_ > now) {
      next_resend = std::min(next_resend,
                             last_recv_ + std::chrono::milliseconds(1));
    }
    const auto tick = std::chrono::steady_clock::now();
    if (tick >= next_resend) {
      // Re-fire the request at heartbeat cadence: over a lossy transport
      // (or one that was still swallowing this node's sends when the
      // first copy went out) a single datagram can vanish, and waiting
      // out the whole phase for it strands the rejoin. Serving is
      // idempotent and stray duplicate responses are dropped upstream.
      next_resend = tick + config_.timeouts.heartbeat;
      try {
        traced_send(*endpoint_, tracer_, target, req, next_round_);
      } catch (const std::exception&) {
      }
    }
    return false;
  });
  sync_pending_ = false;
  if (!sync_response_) {
    if (!stop_.load(std::memory_order_relaxed)) {
      util::log_warn() << "net: server " << endpoint_->address()
                       << " chain sync from node " << target << " timed out";
    }
    return false;
  }
  return apply_chain_sync(*std::exchange(sync_response_, std::nullopt));
}

bool ServerNode::apply_chain_sync(const ChainSyncResponseMsg& resp) {
  if (resp.ok == 0) return false;
  auto& metrics = NetMetrics::global();
  const std::size_t committed_before = replicated_->committed_count();
  std::uint64_t replayed = 0;
  for (const SyncedBlock& sb : resp.blocks) {
    const std::uint64_t idx = sb.sealed.header.index;
    const std::uint64_t have = engine_->ledger().block_count();
    if (idx > have) {
      throw std::runtime_error("server " +
                               std::to_string(endpoint_->address()) +
                               ": chain sync skipped block " +
                               std::to_string(have));
    }
    if (idx == have) {
      // Rejoin-by-replay: re-run the committed records through the local
      // engine — reputation events, rewards, re-selection, and a re-sealed
      // byte-identical block (adopt_committed verifies the match).
      engine_->catch_up_block(sb.records);
      ++replayed;
    }
    replicated_->adopt_committed(sb.sealed);
  }
  if (global_model_ && resp.theta_round > theta_round_) {
    nn::restore_checkpoint(*global_model_, resp.theta);
    theta_round_ = resp.theta_round;
  }
  next_round_ = std::max(next_round_, engine_->round());
  pending_proposals_.erase(
      pending_proposals_.begin(),
      pending_proposals_.lower_bound(replicated_->committed_count()));
  pending_votes_.erase(
      pending_votes_.begin(),
      pending_votes_.lower_bound(replicated_->committed_count()));
  if (replayed > 0) {
    diverged_ = false;  // the replica is bit-identical again
    pending_uploads_.erase(pending_uploads_.begin(),
                           pending_uploads_.lower_bound(next_round_));
    metrics.server_rejoins->inc();
    tracer_.note(obs::FlightEventKind::kServerRejoin, obs::kNoFlightPeer,
                 static_cast<std::uint8_t>(MessageType::kChainSyncResponse),
                 next_round_, replayed);
    util::log_info() << "net: server " << endpoint_->address()
                     << " replayed " << replayed
                     << " committed block(s), resuming at round "
                     << next_round_;
  }
  return replayed > 0 || replicated_->committed_count() > committed_before;
}

void ServerNode::serve_chain_sync(const ChainSyncRequestMsg& req,
                                  NodeKey from) {
  ChainSyncResponseMsg resp;
  resp.round = req.round;
  resp.from_block = req.from_block;
  const std::uint64_t tip = replicated_->committed_count();
  // Only a replica sitting exactly on a round boundary can serve: its θ
  // checkpoint then corresponds to the committed prefix, so the rejoiner
  // lands in a consistent (blocks, θ) state.
  const bool can_serve = global_model_ != nullptr && !diverged_ &&
                         theta_round_ == tip && req.from_block <= tip;
  if (can_serve) {
    resp.ok = 1;
    for (std::uint64_t b = req.from_block; b < tip; ++b) {
      const chain::SealedBlockHeader* entry = replicated_->sealed(b);
      if (entry == nullptr) {  // should not happen below the committed tip
        resp.ok = 0;
        resp.blocks.clear();
        break;
      }
      resp.blocks.push_back(
          SyncedBlock{*entry, engine_->ledger().block(b).records});
    }
    if (resp.ok == 1) {
      resp.theta_round = theta_round_;
      resp.theta = nn::checkpoint_bytes(*global_model_, "chain-sync");
    }
  }
  send_or_log(*endpoint_, tracer_, from, resp, req.round);
}

}  // namespace fifl::net
