// The federation's roles as communicating nodes (Sec. 3.1/3.2 as a
// runtime instead of a loop over std::vector<Worker>).
//
// Topology: N WorkerNodes (keys 0..N-1) and M ServerNodes (keys
// N..N+M-1). Server 0 — the "lead" — drives the round state machine:
//
//   lead:    ModelBroadcast θ_t ──► workers
//   worker:  local SGD + behaviour ──► GradientUpload to EVERY server
//   server:  deterministic FiflEngine replica over the canonical upload
//            vector ──► SliceAggregate (its slice of G̃) to the lead
//   lead:    recombine M slices ──► θ_{t+1}; AssessmentResult (per-worker
//            accept/reputation/reward + signed ledger records) ──► workers
//
// Every server runs the full assessment pipeline on the full upload set
// (deterministic state-machine replication — the replicas stay
// bit-identical, which the lead checks against the slices it receives);
// only the aggregated slices travel on the server→lead path, keeping the
// paper's polycentric bandwidth shape on the wire. Uploads are buffered
// into per-worker slots and processed in worker-id order, so results are
// independent of message arrival order by construction. Each phase waits
// under a timeout; workers that miss it become "uncertain events",
// exactly like channel losses in the simulator.
//
// Crash-fault tolerance (quorum rounds):
//   - Workers heartbeat the lead every NodeTimeouts::heartbeat; a worker
//     silent for NodeTimeouts::liveness is declared dead (net.dropped_
//     workers), removed from the roster, and skipped until it speaks
//     again — a returning worker is re-homed at the next ModelBroadcast
//     (net.worker_rejoins) and catches up from the current θ.
//   - After the phase deadline the lead proceeds if at least
//     ceil(quorum.min_fraction · N) uploads were counted; missing workers
//     become uncertain events and the round counts into
//     net.rounds_degraded. Below quorum the run aborts.
//   - The lead publishes the counted worker set (RoundSummary) to every
//     follower, which feeds its engine exactly that set — so the
//     deterministic replicas stay bit-identical across partial rounds. A
//     follower that cannot reproduce the set (a counted upload never
//     reached it) answers with an incomplete slice and stops processing;
//     the lead tolerates the gap (net.slice_gaps) instead of treating it
//     as divergence. Bitwise slice verification still applies to every
//     complete slice.
//
// Wire compression (negotiated at Join, see fl/compression.hpp):
//   - A worker advertises a codec capability mask in its JoinMsg; the
//     lead answers with the per-worker choice (its CompressionPolicy
//     preference if advertised, kDense otherwise), so mixed-codec
//     clusters work — every server densifies at canonicalize_uploads()
//     and the assessment pipeline never sees a sparse vector.
//   - kTopK uploads carry the keep_fraction largest-magnitude entries as
//     sorted (index, value) pairs.
//   - kDelta broadcasts send only the params whose bits changed since the
//     round the worker last acknowledged (the per-round RTT ping and the
//     uploads themselves double as acks); the lead keeps a bounded
//     history of broadcast θ snapshots and falls back to a dense
//     checkpoint when no usable baseline exists (round 0, rejoins,
//     pruned history) or the delta would not actually be smaller.
//
// Lead failover (ServerNodeConfig::failover, requires replicate_ledger):
//   - Every server can hold a θ replica and drive rounds; "the lead" is
//     just the current executor. Followers watch executor progress
//     (summaries/proposals); past the progress deadline they run a
//     reputation-ranked election (ViewChange/ViewChangeVote) — the
//     highest-reputation live server proposes first, carrying its
//     committed chain head; a quorum of grants makes it the executor, and
//     it re-proposes the chain tip and re-drives the interrupted round
//     from the uploads every server already holds.
//   - Executor rotation (rotate_executor): each RoundSummary names the
//     next round's executor; the handoff completes only once the named
//     successor holds the summary's block committed locally (chain-head
//     handoff), so the chain never forks across a rotation.
//   - A crashed server that comes back replays the committed blocks it
//     missed (ChainSyncRequest/Response: quorum certificates + records +
//     a θ checkpoint), rebuilds its deterministic engine replica
//     bit-identically, and resumes voting (net.server_rejoins).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/fifl.hpp"
#include "fl/simulator.hpp"
#include "net/tracing.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace fifl::net {

/// Node-key layout helper for one cluster.
struct Topology {
  std::uint32_t workers = 0;
  std::uint32_t servers = 0;

  NodeKey worker_key(std::uint32_t i) const noexcept { return i; }
  NodeKey server_key(std::uint32_t j) const noexcept { return workers + j; }
  NodeKey lead_key() const noexcept { return workers; }
  std::vector<NodeKey> server_keys() const;
};

/// Builds the canonical worker-id-ordered upload vector from upload
/// messages in arbitrary arrival order. Slot i holds worker i's message
/// (duplicates: last wins); workers with no message become absent uploads
/// (arrived = false), i.e. uncertain events. This is the single point
/// that makes server assessment independent of wire ordering.
std::vector<fl::Upload> canonicalize_uploads(
    std::span<const GradientUploadMsg> msgs, std::size_t workers);

/// Allocation-free variant for the per-round server paths: `out` (and each
/// slot's Gradient storage) is reused across rounds, so steady-state
/// densification performs no heap allocation.
void canonicalize_uploads_into(std::span<const GradientUploadMsg> msgs,
                               std::size_t workers,
                               std::vector<fl::Upload>& out);

struct NodeTimeouts {
  std::chrono::milliseconds join{10000};
  std::chrono::milliseconds phase{10000};
  /// Interval between worker -> lead liveness heartbeats.
  std::chrono::milliseconds heartbeat{500};
  /// Silence after which the lead declares a worker dead. Must comfortably
  /// exceed `heartbeat` plus the longest local-training stretch (workers
  /// do not heartbeat while inside make_upload).
  std::chrono::milliseconds liveness{2500};
};

/// Quorum policy for lead rounds (see the header comment).
struct QuorumConfig {
  /// Fraction of the worker roster whose uploads must be counted for the
  /// round to proceed; ceil(min_fraction * workers), at least 1.
  double min_fraction = 0.5;
};

/// Lead-side wire-compression preferences, applied per worker at Join
/// time: a worker gets the preferred codec iff it advertised support,
/// kDense otherwise. The defaults keep every run byte-identical to the
/// uncompressed protocol.
struct CompressionPolicy {
  fl::Codec upload = fl::Codec::kDense;     // kDense | kTopK
  fl::Codec broadcast = fl::Codec::kDense;  // kDense | kDelta
  /// kTopK keep fraction handed to workers in the JoinAck.
  double topk_keep_fraction = 0.1;
  /// kDelta falls back to a dense checkpoint when the sparse encoding
  /// would be at least as large (break-even: half the params changed).
  /// Tests disable the fallback to force the delta path deterministically.
  bool delta_dense_fallback = true;
};

/// Per-round outcome collected by the lead server.
struct NetRoundResult {
  std::uint64_t round = 0;
  std::string model_hash;  // sha256 hex of θ_{t+1}
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t uncertain = 0;
  bool degraded = false;
  double fairness = 0.0;
  std::vector<double> reputations;
  std::vector<double> rewards;
  /// Uploads counted toward this round (== workers on a full round).
  std::size_t counted = 0;
  /// Roster size after liveness pruning, when the round closed.
  std::size_t live_workers = 0;
  /// Per-worker upload arrival this round (absent => uncertain event).
  std::vector<std::uint8_t> arrived;
};

/// sha256 hex digest of a flat parameter vector (the equivalence
/// fingerprint both runtimes are compared on).
std::string parameter_hash(std::span<const float> params);

/// Worker-side audit configuration: when enabled, the worker queries the
/// lead for a Merkle proof of its own reputation record after every
/// assessment (except the final round's, whose answer would race the
/// Leave) and verifies the returned bundle against its own KeyRegistry
/// replica — built from `key_seed`, trusting no server.
struct WorkerAuditConfig {
  bool enabled = false;
  std::uint64_t key_seed = 0;
};

/// One worker-side audit round trip and its local verdict.
struct WorkerAuditOutcome {
  std::uint64_t round = 0;
  bool verified = false;
};

class WorkerNode {
 public:
  /// `supported_codecs` is the capability mask advertised in the JoinMsg
  /// (must include fl::Codec::kDense, the negotiation fallback).
  WorkerNode(std::unique_ptr<fl::Worker> worker,
             std::unique_ptr<Endpoint> endpoint, Topology topology,
             NodeTimeouts timeouts,
             std::uint32_t supported_codecs = fl::kAllCodecs,
             WorkerAuditConfig audit = {});

  /// Event loop: join, then train on every ModelBroadcast until Leave.
  /// Runs on the caller's thread (the cluster gives each node one).
  void run();

  void request_stop();

  /// Rewards this worker saw in its AssessmentResults (bookkeeping the
  /// incentive actually delivered to the node).
  const std::vector<double>& observed_rewards() const noexcept {
    return observed_rewards_;
  }

  /// Locally verified AuditProof round trips (audit-enabled runs only),
  /// in answer-arrival order.
  const std::vector<WorkerAuditOutcome>& audit_outcomes() const noexcept {
    return audit_outcomes_;
  }

 private:
  /// `parent_span` is the wire span id of the broadcast that triggered
  /// the training step (0 when it arrived untraced), so the resulting
  /// uploads nest under it in the merged timeline.
  void handle_broadcast(const ModelBroadcastMsg& msg,
                        std::uint64_t parent_span);
  /// Sends one audit query (with the proof-cache watermark) to server
  /// `server`; failures are logged, the retry timer handles the rest.
  void send_audit_query(std::uint64_t round, std::uint32_t server,
                        std::uint64_t parent_span);
  /// Fallback path: re-aims the pending audit query at the next server
  /// (round-robin) after a liveness window without an answer; gives up
  /// once every server was tried.
  void retry_audit();

  std::unique_ptr<fl::Worker> worker_;
  std::unique_ptr<Endpoint> endpoint_;
  Topology topology_;
  NodeTimeouts timeouts_;
  std::uint32_t supported_codecs_;
  WorkerAuditConfig audit_;
  /// Audit-enabled runs only: this worker's PKI replica and verified
  /// header anchor. Its verified_count() is the proof-cache watermark each
  /// query carries (AuditQueryMsg::last_verified_index), so servers ship
  /// only the headers past the anchor.
  std::optional<chain::AuditVerifier> auditor_;
  /// Rounds learned from the JoinAck; gates the final-round query.
  std::uint64_t total_rounds_ = 0;
  std::vector<WorkerAuditOutcome> audit_outcomes_;
  /// Resolved once at construction; null members when FIFL_TRACE_DIR is
  /// unset, so every producer site pays one branch on the disabled path.
  NodeTracer tracer_;
  std::atomic<bool> stop_{false};
  std::vector<double> observed_rewards_;
  std::map<std::uint64_t, std::chrono::steady_clock::time_point> ping_sent_;
  /// Negotiated in the JoinAck.
  fl::Codec upload_codec_ = fl::Codec::kDense;
  double keep_fraction_ = 1.0;
  /// Current θ replica for delta broadcasts: the parameters of round
  /// `params_round_` (only trusted once has_params_ is set).
  std::vector<float> params_;
  std::uint64_t params_round_ = 0;
  bool has_params_ = false;
  /// The server this worker currently treats as the lead: heartbeats,
  /// per-round pings and first-try audit queries aim here. Re-homed on
  /// every broadcast/assessment from a server, so a re-elected or rotated
  /// executor picks the roster up at its first fan-out.
  NodeKey current_lead_ = 0;
  /// Highest round trained so far and the upload it produced. A duplicate
  /// broadcast (a re-elected executor re-driving the round) re-sends the
  /// cached upload instead of retraining — retraining would advance the
  /// local RNG and fork this worker off the deterministic reference
  /// sequence.
  bool has_trained_ = false;
  std::uint64_t last_trained_round_ = 0;
  GradientUploadMsg cached_upload_;
  /// The one in-flight audit round trip and its retry state.
  struct PendingAudit {
    std::uint64_t round = 0;
    std::chrono::steady_clock::time_point deadline;
    std::uint32_t tried = 0;   // servers queried so far
    std::uint32_t cursor = 0;  // server index queried last
  };
  std::optional<PendingAudit> pending_audit_;
};

struct ServerNodeConfig {
  std::uint32_t server_index = 0;  // 0 = lead
  std::size_t rounds = 0;          // lead only: rounds to drive
  double global_learning_rate = 0.05;
  NodeTimeouts timeouts;
  QuorumConfig quorum;
  CompressionPolicy compression;  // lead only: negotiation preferences
  /// Replicated audit ledger (chain/replicated.hpp): the lead proposes
  /// every sealed block to the followers and only proceeds on a signature
  /// quorum; followers recompute each proposed block and vote. Off by
  /// default — the message flow (and its latency) is additive, the engine
  /// inputs are untouched, so enabling it preserves bit-for-bit parity
  /// with the Simulator.
  bool replicate_ledger = false;
  /// Key seed for the ledger PKI replica (FiflConfig::key_seed).
  std::uint64_t ledger_key_seed = 0;
  /// Executor rotation: each RoundSummary names the next live server
  /// (round-robin) as the next round's executor; the handoff completes
  /// only once the successor holds the summary's block committed locally.
  /// Requires replicate_ledger and a θ replica on every server.
  bool rotate_executor = false;
  /// Lead failover: followers detect a silent executor, elect the
  /// highest-reputation live server by signed quorum vote, and a crashed
  /// server rejoins by replaying the committed blocks it missed. Requires
  /// replicate_ledger and a θ replica on every server.
  bool failover = false;
};

class ServerNode {
 public:
  /// `global_model` must be non-null for server 0 (the bootstrap lead) and
  /// for every server when rotation/failover is on (any server may become
  /// the executor); a plain follower may run θ-less.
  ServerNode(ServerNodeConfig config, std::unique_ptr<core::FiflEngine> engine,
             std::unique_ptr<nn::Sequential> global_model,
             std::unique_ptr<Endpoint> endpoint, Topology topology);

  using RoundCallback =
      std::function<void(const NetRoundResult&, std::span<const float>)>;
  void set_round_callback(RoundCallback callback) {
    round_callback_ = std::move(callback);
  }
  /// Where the lead's per-round traces go (nullptr = process-global).
  void set_trace_recorder(obs::RoundTraceRecorder* recorder) {
    trace_recorder_ = recorder;
  }

  void run();
  void request_stop();

  /// The bootstrap lead (server 0): runs the join gate and drives round 0.
  bool is_lead() const noexcept { return config_.server_index == 0; }
  /// True while this server is the round executor (rotation and elections
  /// move the role at runtime; without them it stays on server 0).
  bool is_executor() const noexcept {
    return executor_index_ == config_.server_index;
  }
  const std::vector<NetRoundResult>& results() const noexcept {
    return results_;
  }
  const core::FiflEngine& engine() const noexcept { return *engine_; }
  nn::Sequential* global_model() noexcept { return global_model_.get(); }
  /// Rounds applied to this server's θ replica (0 for θ-less followers);
  /// the freshest replica is the cluster's final model.
  std::uint64_t theta_rounds() const noexcept { return theta_round_; }
  /// The replicated-ledger state (nullptr unless replicate_ledger):
  /// executors hold quorum certificates, followers their endorsed headers
  /// plus every broadcast vote they observed.
  const chain::ReplicatedLedger* replicated_ledger() const noexcept {
    return replicated_.get();
  }

 private:
  /// Sentinel executor index: the previous executor retired or was
  /// demoted and no successor is known yet — the next RoundSummary or
  /// election resolves it.
  static constexpr std::uint32_t kUnknownExecutor = 0xffffffffu;

  /// The one receive point: waits at most `wait` for one envelope and
  /// dispatches it through handle_control. nullopt when the wait ran out.
  std::optional<Envelope> step(std::chrono::milliseconds wait);
  /// The bounded wait: steps (each at most min(time left, heartbeat))
  /// until `done()` holds, the deadline passes, or the node stops. True
  /// iff `done()` held.
  template <typename Done>
  bool wait_until(std::chrono::steady_clock::time_point deadline, Done done);
  /// The one envelope handler, uploads included (see intake_upload).
  void handle_control(const Envelope& envelope);
  /// The upload intake rule of this node's role. Executor: into its slot
  /// while the collect window is open, buffered for later rounds, a dead
  /// worker's upload re-homes it. Follower: buffered for rounds
  /// >= next_round_. Anything else counts in net.late_uploads.
  void intake_upload(GradientUploadMsg msg);
  /// Server 0's join gate: waits for the full federation.
  void await_federation();
  void run_executor();
  void run_follower();
  /// Executor round phases, in order: re-home revived workers and fan θ_r
  /// out; collect uploads into pending_uploads_[round] until every live
  /// worker has one or the deadline passes (pruning the roster through
  /// the liveness window meanwhile); gate on the worker quorum (false:
  /// stepped down); publish the counted set (returning its uploads);
  /// propose sealed block `b`; gather and check the follower slices
  /// bitwise; fan the assessment out; record the result row, trace and
  /// callback.
  void broadcast_round(std::uint64_t r,
                       std::chrono::steady_clock::time_point start);
  void collect_uploads(std::uint64_t round,
                       std::chrono::steady_clock::time_point deadline);
  bool quorum_gate(std::uint64_t r, std::size_t counted);
  std::vector<GradientUploadMsg> publish_summary(std::uint64_t r,
                                                 std::uint32_t next_executor);
  void propose_block(std::uint64_t b);
  void verify_slices(std::uint64_t r, const core::RoundReport& report);
  void publish_assessment(std::uint64_t r, const core::RoundReport& report,
                          const std::vector<fl::Upload>& uploads);
  struct CounterSnapshot;
  void record_round(std::uint64_t r, const core::RoundReport& report,
                    const std::vector<fl::Upload>& uploads,
                    std::size_t counted, double collect_ms,
                    const CounterSnapshot& net_before);
  /// Executor -> follower after a lost worker or ledger quorum.
  void step_down();
  /// Follower: runs (or refuses) one round against the executor's counted
  /// set; the slice answer goes back to `executor`.
  void process_summary(const RoundSummaryMsg& summary, NodeKey executor);
  void note_worker_traffic(NodeKey from);
  /// Any server: verifies + folds one broadcast vote into the local
  /// certificate; votes racing ahead of this replica's own endorsement
  /// are parked in pending_votes_. A contradicting block hash is a ledger
  /// fork (postmortem dump + throw).
  void apply_block_vote(const BlockVoteMsg& msg);
  /// Replays the votes parked for `block_index` once the entry exists.
  void drain_pending_votes(std::uint64_t block_index);
  /// Follower: recomputes every buffered proposal the local ledger has
  /// sealed and answers with a signed vote to every server; a mismatch is
  /// a ledger fork.
  void follower_vote_on_proposals();
  /// Executor: waits until block `r` commits (noting the ledger_commit
  /// phase) or the phase deadline passes. Returns false when the node
  /// stopped or the deadline hit and failover demoted it to follower (the
  /// caller must abandon the round); without failover the deadline is a
  /// deterministic abort.
  bool await_ledger_commit(std::uint64_t r);
  /// Fan-out helper: sends `msg` to every other server (dead ones
  /// included — their inboxes are cheap and liveness is their problem).
  template <typename Msg>
  void send_to_other_servers(const Msg& msg, std::uint64_t round);
  /// The next live server after `self` in index order (rotation target);
  /// `self` when every other server is dead.
  std::uint32_t next_live_server(std::uint32_t self) const;
  /// Hash of the last committed block (zero digest when none).
  chain::Digest committed_head() const;
  /// Voter side of the election: verify the proposal signature, grant iff
  /// the proposer's committed chain is at least ours (nack carries our
  /// head so a behind proposer can sync), re-home on the granted winner.
  void handle_view_change(const ViewChangeMsg& msg);
  /// Follower side of a failed executor: reputation-ranked backoff, the
  /// signed proposal fan-out, grant counting, takeover (true) or standing
  /// down for a better candidate (false). Throws with a
  /// "view_change_abort" postmortem when no quorum forms in time.
  bool run_election();
  /// Rotation handoff: waits (≤ one phase) until block `r` is committed
  /// locally before assuming the executor role named in the summary.
  bool await_handoff_commit(std::uint64_t r);
  /// Rejoin-by-replay client: one ChainSyncRequest to `target` (rate
  /// limited to one per phase) and the blocking wait for its response.
  /// True when the local replica advanced.
  bool request_chain_sync(NodeKey target);
  /// Applies one sync response: catch_up_block for blocks the engine is
  /// missing, adopt_committed for every shipped certificate, θ checkpoint
  /// restore, and the rejoin bookkeeping.
  bool apply_chain_sync(const ChainSyncResponseMsg& resp);
  /// Serves a ChainSyncRequest when this replica sits exactly on a round
  /// boundary (θ rounds == committed prefix); answers ok == 0 otherwise.
  void serve_chain_sync(const ChainSyncRequestMsg& req, NodeKey from);

  ServerNodeConfig config_;
  std::unique_ptr<core::FiflEngine> engine_;
  std::unique_ptr<nn::Sequential> global_model_;
  std::unique_ptr<Endpoint> endpoint_;
  Topology topology_;
  /// See WorkerNode::tracer_.
  NodeTracer tracer_;
  std::atomic<bool> stop_{false};
  bool leave_received_ = false;
  RoundCallback round_callback_;
  obs::RoundTraceRecorder* trace_recorder_ = nullptr;
  std::vector<NetRoundResult> results_;
  /// Uploads held by intake_upload, keyed by round then worker: the
  /// executor's collect slots for round next_round_, and uploads buffered
  /// ahead of their round (a worker can race ahead of a lagging follower).
  std::map<std::uint64_t, std::map<std::uint32_t, GradientUploadMsg>>
      pending_uploads_;
  /// Lead only: slices buffered by round then server index.
  std::map<std::uint64_t, std::map<std::uint32_t, SliceAggregateMsg>>
      pending_slices_;
  /// Per-round densification scratch reused across rounds (the slot
  /// vector and each slot's gradient storage). Only touched from the
  /// node's run thread (run_executor / run_follower round loops), never
  /// from handlers on other threads.
  std::vector<fl::Upload> upload_scratch_;
  /// Flat θ, reused round after round: the broadcast's copy, then (once
  /// the broadcast is sent) the stepped θ for the model hash and the round
  /// callback. Same threading rule as upload_scratch_.
  std::vector<float> theta_;
  std::size_t joined_workers_ = 0;
  std::size_t joined_servers_ = 0;
  /// Lead only: liveness bookkeeping (last traffic per worker, workers
  /// declared dead, dead workers that spoke again and re-home at the next
  /// broadcast).
  std::map<NodeKey, std::chrono::steady_clock::time_point> last_seen_;
  std::set<NodeKey> dead_workers_;
  std::set<NodeKey> revive_pending_;
  /// Follower only: executor summaries not yet processed (plus who sent
  /// each, the ChainSync target for gaps), and whether this replica has
  /// permanently lost sync with the executor's counted sequence (failover
  /// off; with failover on a gap triggers rejoin-by-replay instead).
  std::map<std::uint64_t, RoundSummaryMsg> pending_summaries_;
  std::map<std::uint64_t, NodeKey> summary_sender_;
  bool diverged_ = false;
  /// --- Failover state ---------------------------------------------------
  /// Which server currently drives rounds (kUnknownExecutor after a
  /// demotion/failed handoff), the view-change epoch, the highest view
  /// this node granted, and the servers known dead (skipped by rotation
  /// and elections; a rejoiner resumes voting but is not rotated back in).
  std::uint32_t executor_index_ = 0;
  std::uint64_t view_ = 0;
  std::uint64_t granted_view_ = 0;
  /// Highest view this node itself proposed; never granted to others (two
  /// same-view candidates granting each other would elect two executors).
  std::uint64_t proposed_view_ = 0;
  std::set<std::uint32_t> dead_servers_;
  /// Next round this replica expects (followers) or drives (executor).
  std::uint64_t next_round_ = 0;
  /// Rounds applied to the local θ replica.
  std::uint64_t theta_round_ = 0;
  /// All rounds driven and Leave fanned out — the run() dispatcher stops.
  bool done_ = false;
  /// A demoted ex-executor stays out of elections until it hears from the
  /// federation again (losing the worker quorum means *we* were the
  /// partitioned side; proposing into the void would abort the run).
  bool election_muted_ = false;
  /// Grant/nack replies to this node's own ViewChange proposal.
  std::vector<ViewChangeVoteMsg> election_votes_;
  /// Broadcast votes that raced ahead of this replica's own endorsement,
  /// parked by block index.
  std::map<std::uint64_t, std::vector<BlockVoteMsg>> pending_votes_;
  /// Rate limiter for ChainSyncRequest retries.
  std::chrono::steady_clock::time_point last_sync_request_{};
  /// While request_chain_sync waits, the handler keeps the first response.
  bool sync_pending_ = false;
  std::optional<ChainSyncResponseMsg> sync_response_;
  /// Executor: the collect window of round next_round_ is open.
  bool collect_open_ = false;
  /// When step() last received an envelope.
  std::chrono::steady_clock::time_point last_recv_{};
  /// Replicated-ledger state (null unless config_.replicate_ledger).
  std::unique_ptr<chain::ReplicatedLedger> replicated_;
  /// Follower only: block proposals buffered until the local replica has
  /// sealed the corresponding block, keyed by block index.
  std::map<std::uint64_t, BlockProposalMsg> pending_proposals_;
  /// Lead only: per-worker negotiated broadcast codec (absent = kDense),
  /// the latest round each worker acknowledged holding θ for (from round
  /// pings and uploads; erased when the worker is declared dead so a
  /// rejoin re-bases on a dense checkpoint), and the bounded history of
  /// broadcast θ snapshots delta encoding bases on.
  std::map<NodeKey, fl::Codec> peer_broadcast_codec_;
  std::map<NodeKey, std::uint64_t> acked_round_;
  std::map<std::uint64_t, std::vector<float>> broadcast_history_;

  void note_broadcast_ack(NodeKey worker, std::uint64_t round);
  /// Lead: builds worker i's broadcast for round r — `dense` when no
  /// usable delta baseline exists or the delta would not be smaller.
  const ModelBroadcastMsg& broadcast_for(
      std::uint32_t worker, const ModelBroadcastMsg& dense,
      std::span<const float> theta,
      std::map<std::uint64_t, std::optional<ModelBroadcastMsg>>& delta_cache);
};

}  // namespace fifl::net
