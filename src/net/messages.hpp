// Wire schema for the fifl::net runtime (Sec. 3.1/3.2 traffic as actual
// messages). Every wire record is a struct plus one declaration of its
// layout, `fields(io, m)`: the fields in wire order, each with the check a
// decoder makes. WireWriter walks that list into a util::ByteWriter
// payload that travels inside one net::Frame; WireReader walks the same
// list back and throws util::SerializeError on any truncation, failed
// check or oversized count, so a corrupted frame can never silently become
// a half-parsed message.
//
// Message flow per round (M servers, N workers, lead = server 0):
//   ModelBroadcast   lead -> workers          θ_t as an nn::checkpoint blob
//                                             (or a kDelta sparse update)
//   GradientUpload   worker i -> every server G_i, dense or kTopK-sparse
//                                             per the negotiated codec
//                                             (replicated-engine inputs;
//                                             slices stay real on the
//                                             server->lead path)
//   RoundSummary     lead -> servers          which workers were counted
//                                             this round (quorum outcome)
//   SliceAggregate   server j -> lead         slice j of the aggregated G̃
//   AssessmentResult lead -> workers          accept/reputation/reward per
//                                             worker + that round's signed
//                                             ledger records
//   Join/JoinAck/Heartbeat/Leave              control plane
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "chain/ledger.hpp"
#include "chain/replicated.hpp"
#include "fl/compression.hpp"
#include "util/serialize.hpp"

namespace fifl::net {

enum class MessageType : std::uint8_t {
  kJoin = 1,
  kJoinAck = 2,
  kLeave = 3,
  kHeartbeat = 4,
  kModelBroadcast = 5,
  kGradientUpload = 6,
  kSliceAggregate = 7,
  kAssessmentResult = 8,
  kRoundSummary = 9,
  // Replicated-ledger plane (chain/replicated.hpp): block commit protocol
  // between servers, audit proofs served to workers.
  kBlockProposal = 10,
  kBlockVote = 11,
  kAuditQuery = 12,
  kAuditProof = 13,
  // View-change plane: lead-failover election between servers plus the
  // crashed-server rejoin catch-up (committed blocks + θ checkpoint).
  kViewChange = 14,
  kViewChangeVote = 15,
  kChainSyncRequest = 16,
  kChainSyncResponse = 17,
};

/// Its switch names every enumerator, so a new one without a name does
/// not compile.
const char* message_type_name(MessageType type);

/// The highest-tagged enumerator. Tags are contiguous from kJoin = 1, so
/// the per-type byte-counter arrays are sized by the enum itself, and
/// WireMessages below must list exactly this many messages.
inline constexpr MessageType kLastMessageType = MessageType::kChainSyncResponse;
inline constexpr std::size_t kMessageTypeCount =
    static_cast<std::size_t>(kLastMessageType);

enum class NodeRole : std::uint8_t { kWorker = 0, kServer = 1 };

/// Join/JoinAck feature bit: this node records + propagates distributed
/// trace contexts (FIFL_TRACE_DIR).
inline constexpr std::uint32_t kFeatureTrace = 0x1u;

/// Codec allowlists: uploads never carry kDelta, broadcasts never kTopK.
inline constexpr std::uint32_t kUploadCodecs =
    fl::codec_bit(fl::Codec::kDense) | fl::codec_bit(fl::Codec::kTopK);
inline constexpr std::uint32_t kBroadcastCodecs =
    fl::codec_bit(fl::Codec::kDense) | fl::codec_bit(fl::Codec::kDelta);

/// `M` is `T` or `const T`: one field list serves the writer (const) and
/// the reader (mutable).
template <typename M, typename T>
concept Like = std::same_as<std::remove_const_t<M>, T>;

// Field-list vocabulary (`io` is a WireWriter or a WireReader):
//   io(x)                 u8/u32/u64/f64, string, digest, SparseVector, a
//                         nested record, or a vector of any of them (u64
//                         count, then the elements)
//   io.flag(x)            a 0/1 byte
//   io.at_most(x, max)    an enum or tag byte no greater than `max`
//   io.codec(x, allowed)  an fl::Codec tag within an allowlist
//   io.require(ok, what)  a check over fields already read

// --- The chain records the ledger messages carry ---------------------------

template <typename IO, Like<chain::Signature> M>
void fields(IO& io, M& m) {
  io(m.signer);
  io(m.tag);
}

template <typename IO, Like<chain::AuditRecord> M>
void fields(IO& io, M& m) {
  io.at_most(m.kind, chain::RecordKind::kServerSelection);
  io(m.round);
  io(m.subject);
  io(m.executor);
  io(m.value);
  io(m.signature);
}

template <typename IO, Like<chain::BlockHeader> M>
void fields(IO& io, M& m) {
  io(m.index);
  io(m.previous_hash);
  io(m.merkle_root);
  io(m.block_hash);
}

template <typename IO, Like<chain::SealedBlockHeader> M>
void fields(IO& io, M& m) {
  io(m.header);
  io(m.executor_sig);
  io(m.votes);
}

template <typename IO, Like<chain::MerkleProofStep> M>
void fields(IO& io, M& m) {
  io(m.sibling);
  io.flag(m.sibling_on_left);
}

/// A miss (found == false) carries nothing else, so it cannot smuggle
/// unverified proof bytes.
template <typename IO, Like<chain::AuditProofBundle> M>
void fields(IO& io, M& m) {
  io.flag(m.found);
  if (!m.found) return;
  io(m.record);
  io(m.block_index);
  io(m.record_index);
  io(m.proof);
  io(m.headers_from);
  io(m.headers);
  // The shipped headers cover chain indices [headers_from, headers_from +
  // n); the proved block must lie under that tip (its header is either
  // shipped here or one the querier already verified).
  const std::uint64_t n = m.headers.size();
  io.require(m.headers_from <= std::numeric_limits<std::uint64_t>::max() - n &&
                 m.block_index < m.headers_from + n,
             "block index outside the header chain");
}

// --- Messages ---------------------------------------------------------------

struct JoinMsg {
  static constexpr MessageType kType = MessageType::kJoin;
  std::uint32_t node = 0;
  NodeRole role = NodeRole::kWorker;
  /// Capability mask of fl::Codec bits this node can encode/decode; must
  /// include kDense (the negotiation fallback) — decode rejects masks
  /// without it. The lead picks one codec per direction from this mask.
  std::uint32_t codecs = fl::codec_bit(fl::Codec::kDense);
  /// Feature bitmask + the sender's monotonic clock in microseconds at
  /// send time (0 unless tracing), which seeds the clock-skew estimate
  /// fifl-tracecat uses to merge node timelines.
  std::uint32_t features = 0;
  std::uint64_t clock_us = 0;
};

template <typename IO, Like<JoinMsg> M>
void fields(IO& io, M& m) {
  io(m.node);
  io.at_most(m.role, NodeRole::kServer);
  io(m.codecs);
  io.require(fl::codec_in(m.codecs, fl::Codec::kDense),
             "codec mask must include dense");
  io(m.features);
  io(m.clock_us);
}

struct JoinAckMsg {
  static constexpr MessageType kType = MessageType::kJoinAck;
  std::uint32_t node = 0;  // the joiner being acknowledged
  std::uint32_t workers = 0;
  std::uint32_t servers = 0;
  std::uint64_t param_count = 0;
  std::uint64_t rounds = 0;
  /// Negotiated codecs for this peer: uploads it sends (kDense | kTopK)
  /// and broadcasts it will receive (kDense | kDelta). keep_fraction
  /// parameterizes kTopK (must be in (0,1]; 1.0 when uploads are dense).
  std::uint8_t upload_codec = static_cast<std::uint8_t>(fl::Codec::kDense);
  std::uint8_t broadcast_codec = static_cast<std::uint8_t>(fl::Codec::kDense);
  double keep_fraction = 1.0;
  /// Mirroring JoinMsg: the features both sides agreed on (tracing
  /// requires the bit in Join AND JoinAck) plus the lead's clock at ack
  /// time — the joiner derives its skew as lead_clock + rtt/2 -
  /// local_recv_time.
  std::uint32_t features = 0;
  std::uint64_t clock_us = 0;
};

template <typename IO, Like<JoinAckMsg> M>
void fields(IO& io, M& m) {
  io(m.node);
  io(m.workers);
  io(m.servers);
  io(m.param_count);
  io(m.rounds);
  io.codec(m.upload_codec, kUploadCodecs);
  io.codec(m.broadcast_codec, kBroadcastCodecs);
  io(m.keep_fraction);
  io.require(m.keep_fraction > 0.0 && m.keep_fraction <= 1.0,
             "keep_fraction outside (0,1]");
  io(m.features);
  io(m.clock_us);
}

struct LeaveMsg {
  static constexpr MessageType kType = MessageType::kLeave;
  std::uint32_t node = 0;
  std::string reason;
};

template <typename IO, Like<LeaveMsg> M>
void fields(IO& io, M& m) {
  io(m.node);
  io(m.reason);
}

/// Ping/pong: `echo == 0` is a request the receiver answers with the same
/// token and `echo == 1`; the sender pairs it with its send timestamp to
/// observe net.rtt_ms.
struct HeartbeatMsg {
  static constexpr MessageType kType = MessageType::kHeartbeat;
  std::uint32_t node = 0;
  std::uint64_t token = 0;
  std::uint8_t echo = 0;
};

template <typename IO, Like<HeartbeatMsg> M>
void fields(IO& io, M& m) {
  io(m.node);
  io(m.token);
  io.flag(m.echo);
}

/// Global parameters θ_t for round `round`. With codec kDense the payload
/// is nn::checkpoint bytes (magic + version + tag + f32 params) — the
/// same blob a disk checkpoint uses, so restore tooling works on captured
/// traffic. With codec kDelta the payload is `base_round` (the round whose
/// θ the receiver acknowledged holding) plus the bitwise parameter delta
/// from that θ to this round's; the receiver overlays it in place.
struct ModelBroadcastMsg {
  static constexpr MessageType kType = MessageType::kModelBroadcast;
  std::uint64_t round = 0;
  std::uint8_t codec = static_cast<std::uint8_t>(fl::Codec::kDense);
  std::vector<std::uint8_t> checkpoint;  // kDense payload
  std::uint64_t base_round = 0;          // kDelta payload
  fl::SparseVector delta;                // kDelta payload
};

template <typename IO, Like<ModelBroadcastMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io.codec(m.codec, kBroadcastCodecs);
  if (m.codec == static_cast<std::uint8_t>(fl::Codec::kDelta)) {
    io(m.base_round);
    io(m.delta);
  } else {
    io(m.checkpoint);
  }
}

/// One worker's model update. With codec kDense the gradient travels as
/// the full f32 array (`gradient`); with kTopK as sorted sparse
/// (index, value) pairs (`sparse`). Servers call dense_gradient() at the
/// canonicalization point, so the assessment pipeline only ever sees
/// dense vectors regardless of what was on the wire.
struct GradientUploadMsg {
  static constexpr MessageType kType = MessageType::kGradientUpload;
  std::uint64_t round = 0;
  std::uint32_t worker = 0;
  std::uint64_t samples = 0;  // n_i, the aggregation weight
  std::uint8_t ground_truth_attack = 0;  // oracle label for detection metrics
  std::uint8_t codec = static_cast<std::uint8_t>(fl::Codec::kDense);
  std::vector<float> gradient;  // kDense payload
  fl::SparseVector sparse;      // kTopK payload

  /// Densified view of whichever payload the codec selected.
  fl::Gradient dense_gradient() const;
  /// Allocation-free variant: densifies into `out`, reusing its capacity
  /// — the steady-state per-round path on the server side.
  void densify_into(fl::Gradient& out) const;
};

template <typename IO, Like<GradientUploadMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.worker);
  io(m.samples);
  io.flag(m.ground_truth_attack);
  io.codec(m.codec, kUploadCodecs);
  if (m.codec == static_cast<std::uint8_t>(fl::Codec::kTopK)) {
    io(m.sparse);
  } else {
    io(m.gradient);
  }
}

/// Aggregated slice j of G̃ (Sec. 3.2: each server serves one slice).
/// `complete == 0` means the replica could not reproduce the lead's
/// counted upload set (e.g. a counted upload never reached it) and the
/// values carry no information — the lead tolerates the gap instead of
/// treating it as replica divergence.
struct SliceAggregateMsg {
  static constexpr MessageType kType = MessageType::kSliceAggregate;
  std::uint64_t round = 0;
  std::uint32_t server_index = 0;
  std::uint64_t offset = 0;  // first element of the slice within G̃
  std::uint8_t complete = 1;
  std::vector<float> values;
};

template <typename IO, Like<SliceAggregateMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.server_index);
  io(m.offset);
  io.flag(m.complete);
  io(m.values);
}

/// One worker's assessment for a round, as published to the federation.
struct WorkerAssessment {
  std::uint32_t worker = 0;
  std::uint8_t arrived = 0;
  std::uint8_t accepted = 0;
  std::uint8_t uncertain = 0;
  double score = 0.0;
  double reputation = 0.0;
  double contribution = 0.0;
  double reward = 0.0;
};

template <typename IO, Like<WorkerAssessment> M>
void fields(IO& io, M& m) {
  io(m.worker);
  io.flag(m.arrived);
  io.flag(m.accepted);
  io.flag(m.uncertain);
  io(m.score);
  io(m.reputation);
  io(m.contribution);
  io(m.reward);
}

struct AssessmentResultMsg {
  static constexpr MessageType kType = MessageType::kAssessmentResult;
  std::uint64_t round = 0;
  std::uint8_t degraded = 0;
  double fairness = 0.0;
  std::vector<WorkerAssessment> workers;
  /// The round's sealed audit records (detection/reputation/contribution/
  /// reward per worker), signatures included, so any receiver can verify
  /// them against a KeyRegistry replica.
  std::vector<chain::AuditRecord> records;
};

template <typename IO, Like<AssessmentResultMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io.flag(m.degraded);
  io(m.fairness);
  io(m.workers);
  io(m.records);
}

/// Quorum outcome of one round, published by the lead to every follower
/// replica before assessment runs: the exact (sorted) set of workers
/// whose uploads were counted. Followers feed their engines precisely
/// this set — workers not listed become uncertain events — which is what
/// keeps the deterministic replicas bit-identical even when the lead
/// proceeded on a partial round.
struct RoundSummaryMsg {
  static constexpr MessageType kType = MessageType::kRoundSummary;
  std::uint64_t round = 0;
  std::uint8_t degraded = 0;  // counted < workers (quorum round)
  /// Executor-rotation token handoff: the server index that drives the
  /// NEXT round. Without rotation the executor names itself, so the field
  /// is also the authoritative "who is the lead right now" signal a
  /// rejoining server re-homes on.
  std::uint32_t next_executor = 0;
  std::vector<std::uint32_t> counted;
};

template <typename IO, Like<RoundSummaryMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io.flag(m.degraded);
  io(m.next_executor);
  io(m.counted);
}

/// Replicated-ledger commit protocol (see chain/replicated.hpp): the
/// round's executor proposes the block it sealed — its header, its
/// signature over the header, and the records — so every follower can
/// recompute the block from its own replica state and detect a fork
/// field by field. All four ledger messages lead with the round number so
/// FaultyTransport's round-windowed partitions apply to them unchanged.
struct BlockProposalMsg {
  static constexpr MessageType kType = MessageType::kBlockProposal;
  std::uint64_t round = 0;
  chain::BlockHeader header;
  chain::Signature executor_sig;
  std::vector<chain::AuditRecord> records;
};

template <typename IO, Like<BlockProposalMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.header);
  io(m.executor_sig);
  io(m.records);
}

/// A follower's signed endorsement of one proposed block: it recomputed
/// the identical header from its own deterministic replica.
struct BlockVoteMsg {
  static constexpr MessageType kType = MessageType::kBlockVote;
  std::uint64_t round = 0;
  std::uint64_t block_index = 0;
  chain::Digest block_hash{};
  chain::Signature vote;
};

template <typename IO, Like<BlockVoteMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.block_index);
  io(m.block_hash);
  io(m.vote);
}

/// Worker -> server (the lead first): "prove my (kind) record for round
/// `round` is on the committed chain". `token` is echoed in the answer so
/// the worker can pair responses with outstanding queries.
struct AuditQueryMsg {
  static constexpr MessageType kType = MessageType::kAuditQuery;
  std::uint64_t round = 0;
  std::uint32_t worker = 0;
  std::uint64_t token = 0;
  std::uint8_t kind = 0;  // chain::RecordKind tag
  /// Proof caching: the worker has already verified committed headers
  /// [0, last_verified_index) (chain::AuditVerifier::verified_count), so
  /// the server ships only headers from that index to the tip — O(1)
  /// per-round proof bytes and verification work instead of O(rounds).
  std::uint64_t last_verified_index = 0;
};

template <typename IO, Like<AuditQueryMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.worker);
  io(m.token);
  io.at_most(m.kind,
             static_cast<std::uint8_t>(chain::RecordKind::kServerSelection));
  io(m.last_verified_index);
}

/// Server -> worker: the chain::AuditProofBundle — record, Merkle
/// inclusion path, and the quorum-certified header chain — which the
/// worker's chain::AuditVerifier checks against its own KeyRegistry
/// replica, trusting no single server. A cached query
/// (AuditQueryMsg::last_verified_index) gets a bundle whose headers start
/// at headers_from; the verifier links the first of them to its anchor and
/// certifies only the headers past it.
struct AuditProofMsg {
  static constexpr MessageType kType = MessageType::kAuditProof;
  std::uint64_t round = 0;
  std::uint32_t worker = 0;
  std::uint64_t token = 0;
  chain::AuditProofBundle bundle;
};

template <typename IO, Like<AuditProofMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.worker);
  io(m.token);
  io(m.bundle);
}

/// Server -> servers: "the executor for view `view - 1` is dead; I am the
/// highest-reputation survivor, here is my committed chain head, elect
/// me". Signed over canonical_payload() with the proposer's ledger key so
/// a worker or transport cannot forge an election. `round` is the round
/// the proposer will drive after takeover (its engine's next round).
struct ViewChangeMsg {
  static constexpr MessageType kType = MessageType::kViewChange;
  std::uint64_t round = 0;
  std::uint64_t view = 0;
  std::uint32_t proposer_index = 0;  // server index of the proposer
  std::uint32_t dead_index = 0;      // server index the proposer suspects dead
  std::uint64_t committed_count = 0; // proposer's committed-prefix length
  chain::Digest head{};              // hash of the last committed block (zero when none)
  chain::Signature sig;

  /// Canonical byte string the proposer signs and voters countersign.
  std::string canonical_payload() const;
};

template <typename IO, Like<ViewChangeMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.view);
  io(m.proposer_index);
  io(m.dead_index);
  io(m.committed_count);
  io(m.head);
  io(m.sig);
}

/// Server -> proposer: signed grant/nack of one ViewChange. A nack
/// carries the voter's own committed head so a behind proposer can
/// ChainSync from the voter before re-proposing.
struct ViewChangeVoteMsg {
  static constexpr MessageType kType = MessageType::kViewChangeVote;
  std::uint64_t round = 0;
  std::uint64_t view = 0;
  std::uint32_t proposer_index = 0;
  std::uint32_t voter_index = 0;
  std::uint8_t granted = 0;
  std::uint64_t committed_count = 0;  // the voter's committed-prefix length
  chain::Digest head{};               // the voter's committed chain head
  chain::Signature sig;

  std::string canonical_payload() const;
};

template <typename IO, Like<ViewChangeVoteMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.view);
  io(m.proposer_index);
  io(m.voter_index);
  io.flag(m.granted);
  io(m.committed_count);
  io(m.head);
  io(m.sig);
}

/// Rejoining (or behind) server -> any live server: "ship me the
/// committed blocks from `from_block` so I can replay my replica up to
/// your tip". `round` is the requester's next engine round (== from_block
/// for an in-sync replica).
struct ChainSyncRequestMsg {
  static constexpr MessageType kType = MessageType::kChainSyncRequest;
  std::uint64_t round = 0;
  std::uint32_t server_index = 0;  // the requester
  std::uint64_t from_block = 0;
};

template <typename IO, Like<ChainSyncRequestMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.server_index);
  io(m.from_block);
}

/// One committed block as served by ChainSync: the quorum certificate and
/// the full record list, enough for the receiver to replay the block into
/// its own engine and verify the recomputed chain bit for bit.
struct SyncedBlock {
  chain::SealedBlockHeader sealed;
  std::vector<chain::AuditRecord> records;
};

template <typename IO, Like<SyncedBlock> M>
void fields(IO& io, M& m) {
  io(m.sealed);
  io(m.records);
}

/// Server -> requester: committed blocks [from_block, from_block + n) plus
/// the responder's θ checkpoint at `theta_round` (the replica cannot
/// rebuild θ from audit records alone — the aggregated gradients are not
/// on the chain). ok == 0 means the responder could not serve a
/// consistent snapshot (its θ and committed prefix were mid-round) and
/// carries no chain material; the requester retries on the next round
/// summary.
struct ChainSyncResponseMsg {
  static constexpr MessageType kType = MessageType::kChainSyncResponse;
  std::uint64_t round = 0;
  std::uint64_t from_block = 0;
  std::uint8_t ok = 0;
  std::vector<SyncedBlock> blocks;
  std::uint64_t theta_round = 0;       // rounds applied to the shipped θ
  std::vector<std::uint8_t> theta;     // nn::checkpoint bytes
};

template <typename IO, Like<ChainSyncResponseMsg> M>
void fields(IO& io, M& m) {
  io(m.round);
  io(m.from_block);
  io.flag(m.ok);
  if (m.ok == 0) return;
  io(m.blocks);
  io(m.theta_round);
  io(m.theta);
}

// --- The writer and the validating reader of a field list ------------------

/// A field's wire integer: an enum's underlying type, else the type itself.
template <typename T>
using WireInt = typename std::conditional_t<
    std::is_enum_v<T>, std::underlying_type<T>, std::type_identity<T>>::type;

/// Writes a record's field list in wire order. The checks are the
/// reader's: the writer sends what it is given.
class WireWriter {
 public:
  explicit WireWriter(util::ByteWriter& out) : out_(out) {}

  void operator()(std::uint8_t v) { out_.write_u8(v); }
  void operator()(std::uint32_t v) { out_.write_u32(v); }
  void operator()(std::uint64_t v) { out_.write_u64(v); }
  void operator()(double v) { out_.write_f64(v); }
  void operator()(const std::string& s) { out_.write_string(s); }
  void operator()(const chain::Digest& digest) { out_.write_bytes(digest); }
  void operator()(const fl::SparseVector& sparse) { sparse.encode(out_); }
  void operator()(const std::vector<float>& xs) { out_.write_f32_array(xs); }
  void operator()(const std::vector<std::uint8_t>& bytes) {
    out_.write_u64(bytes.size());
    out_.write_bytes(bytes);
  }
  template <typename T>
  void operator()(const std::vector<T>& xs) {
    out_.write_u64(xs.size());
    for (const T& x : xs) (*this)(x);
  }
  template <typename Record>
  void operator()(const Record& record) { fields(*this, record); }

  template <typename T>
  void flag(T v) { out_.write_u8(static_cast<std::uint8_t>(v)); }
  template <typename T>
  void at_most(T v, T /*max*/) { (*this)(static_cast<WireInt<T>>(v)); }
  void codec(std::uint8_t v, std::uint32_t /*allowed*/) { out_.write_u8(v); }
  void require(bool /*ok*/, const char* /*what*/) {}

 private:
  util::ByteWriter& out_;
};

/// Encoded size of a default `T`: the least room one sequence element
/// takes, so the reader rejects a count the rest of the payload cannot
/// hold before allocating for it.
template <typename T>
std::size_t min_wire_size() {
  util::ByteWriter out;
  WireWriter{out}(T{});
  return out.buffer().size();
}

/// Reads a record's field list in wire order and makes every check it
/// declares; a failure throws util::SerializeError naming `what`.
class WireReader {
 public:
  WireReader(util::ByteReader& in, const char* what) : in_(in), what_(what) {}

  void operator()(std::uint8_t& v) { v = in_.read_u8(); }
  void operator()(std::uint32_t& v) { v = in_.read_u32(); }
  void operator()(std::uint64_t& v) { v = in_.read_u64(); }
  void operator()(double& v) { v = in_.read_f64(); }
  void operator()(std::string& s) { s = in_.read_string(); }
  void operator()(chain::Digest& digest) {
    const std::vector<std::uint8_t> bytes = in_.read_bytes(digest.size());
    std::copy(bytes.begin(), bytes.end(), digest.begin());
  }
  void operator()(fl::SparseVector& s) { s = fl::SparseVector::decode(in_); }
  void operator()(std::vector<float>& xs) { xs = in_.read_f32_array(); }
  void operator()(std::vector<std::uint8_t>& bytes) {
    bytes = in_.read_bytes(count(1));
  }
  template <typename T>
  void operator()(std::vector<T>& xs) {
    xs.resize(count(min_wire_size<T>()));
    for (T& x : xs) (*this)(x);
  }
  template <typename Record>
  void operator()(Record& record) { fields(*this, record); }

  template <typename T>
  void flag(T& v) {
    const std::uint8_t raw = in_.read_u8();
    require(raw <= 1, "flag byte must be 0/1");
    v = static_cast<T>(raw);
  }
  template <typename T>
  void at_most(T& v, T max) {
    WireInt<T> raw{};
    (*this)(raw);
    if (raw > static_cast<WireInt<T>>(max)) {
      fail("value " + std::to_string(raw) + " out of range");
    }
    v = static_cast<T>(raw);
  }
  void codec(std::uint8_t& v, std::uint32_t allowed) {
    v = in_.read_u8();
    if (v > static_cast<std::uint8_t>(fl::Codec::kDelta) ||
        !fl::codec_in(allowed, static_cast<fl::Codec>(v))) {
      fail("codec " + std::to_string(v) + " not allowed");
    }
  }
  void require(bool ok, const char* what) { if (!ok) fail(what); }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw util::SerializeError(std::string(what_) + ": " + why);
  }
  /// A sequence's u64 count, no larger than the remaining bytes allow at
  /// `min_size` bytes per element.
  std::size_t count(std::size_t min_size) {
    const std::uint64_t n = in_.read_u64();
    require(n <= in_.remaining() / min_size, "count exceeds payload");
    return static_cast<std::size_t>(n);
  }

  util::ByteReader& in_;
  const char* what_;
};

// --- The message list -------------------------------------------------------

template <typename... Msgs>
struct MessageList {
  /// Calls `f(std::type_identity<Msg>{})` for each message, in list order.
  template <typename F>
  static constexpr void for_each(F&& f) {
    (f(std::type_identity<Msgs>{}), ...);
  }
};

/// Every wire message, in tag order.
using WireMessages =
    MessageList<JoinMsg, JoinAckMsg, LeaveMsg, HeartbeatMsg,
                ModelBroadcastMsg, GradientUploadMsg, SliceAggregateMsg,
                AssessmentResultMsg, RoundSummaryMsg, BlockProposalMsg,
                BlockVoteMsg, AuditQueryMsg, AuditProofMsg, ViewChangeMsg,
                ViewChangeVoteMsg, ChainSyncRequestMsg, ChainSyncResponseMsg>;

/// A message: its tag plus a field list both walkers accept.
template <typename Msg>
concept WireMessage = requires(WireWriter& w, WireReader& r, const Msg& in,
                               Msg& out) {
  { Msg::kType } -> std::convertible_to<MessageType>;
  fields(w, in);
  fields(r, out);
};

template <typename... Msgs>
constexpr bool declares_every_tag(MessageList<Msgs...>) {
  std::size_t tag = 0;
  const bool in_order = ((WireMessage<Msgs> &&
                          static_cast<std::size_t>(Msgs::kType) == ++tag) &&
                         ...);
  return in_order && tag == kMessageTypeCount;
}
static_assert(declares_every_tag(WireMessages{}),
              "WireMessages must list one WireMessage (kType + fields()) per "
              "MessageType, in tag order, up to kLastMessageType");

/// Data-plane messages: the ones with a `round`, which leads their payload
/// as a u64 so FaultyTransport can window faults by round without the rest
/// of the schema. Join, JoinAck, Leave and Heartbeat have none.
template <typename Msg>
concept RoundTagged = std::same_as<decltype(Msg::round), std::uint64_t>;

/// Whether messages of `type` are RoundTagged; false for unknown tags.
bool leads_with_round(MessageType type) noexcept;

/// Encodes `msg` into a frame payload.
template <WireMessage Msg>
std::vector<std::uint8_t> encode_payload(const Msg& msg) {
  util::ByteWriter out;
  WireWriter io(out);
  fields(io, msg);
  return out.take();
}

/// Decodes a full payload, requiring every byte to be consumed — trailing
/// garbage means a framing bug or corruption, not a valid message.
template <WireMessage Msg>
Msg decode_payload(std::span<const std::uint8_t> payload) {
  util::ByteReader in(payload);
  WireReader io(in, message_type_name(Msg::kType));
  Msg msg;
  fields(io, msg);
  io.require(in.exhausted(), "trailing bytes after the message");
  return msg;
}

}  // namespace fifl::net
