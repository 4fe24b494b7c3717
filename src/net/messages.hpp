// Wire schema for the fifl::net runtime (Sec. 3.1/3.2 traffic as actual
// messages). Every struct encodes into a util::ByteWriter payload that
// travels inside one net::Frame; decode is the exact inverse and throws
// util::SerializeError on any truncation or type mismatch, so a corrupted
// frame can never silently become a half-parsed message.
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

#include <cstdint>
#include <string>
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

const char* message_type_name(MessageType type);

/// The highest-tagged enumerator. Tags are contiguous from kJoin = 1, so
/// the per-type byte-counter arrays are sized by the enum itself — adding
/// a message type resizes them automatically instead of silently
/// truncating the new type's counters.
inline constexpr MessageType kLastMessageType = MessageType::kChainSyncResponse;
inline constexpr std::size_t kMessageTypeCount =
    static_cast<std::size_t>(kLastMessageType);
static_assert(static_cast<std::size_t>(MessageType::kJoin) == 1 &&
                  kMessageTypeCount ==
                      static_cast<std::size_t>(kLastMessageType),
              "MessageType tags must stay contiguous from 1; point "
              "kLastMessageType at the final enumerator");

enum class NodeRole : std::uint8_t { kWorker = 0, kServer = 1 };

/// Join/JoinAck feature bit: this node records + propagates distributed
/// trace contexts (FIFL_TRACE_DIR).
inline constexpr std::uint32_t kFeatureTrace = 0x1u;

struct JoinMsg {
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

  void encode(util::ByteWriter& w) const;
  static JoinMsg decode(util::ByteReader& r);
};

struct JoinAckMsg {
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

  void encode(util::ByteWriter& w) const;
  static JoinAckMsg decode(util::ByteReader& r);
};

struct LeaveMsg {
  std::uint32_t node = 0;
  std::string reason;

  void encode(util::ByteWriter& w) const;
  static LeaveMsg decode(util::ByteReader& r);
};

/// Ping/pong: `echo == 0` is a request the receiver answers with the same
/// token and `echo == 1`; the sender pairs it with its send timestamp to
/// observe net.rtt_ms.
struct HeartbeatMsg {
  std::uint32_t node = 0;
  std::uint64_t token = 0;
  std::uint8_t echo = 0;

  void encode(util::ByteWriter& w) const;
  static HeartbeatMsg decode(util::ByteReader& r);
};

/// Global parameters θ_t for round `round`. With codec kDense the payload
/// is nn::checkpoint bytes (magic + version + tag + f32 params) — the
/// same blob a disk checkpoint uses, so restore tooling works on captured
/// traffic. With codec kDelta the payload is `base_round` (the round whose
/// θ the receiver acknowledged holding) plus the bitwise parameter delta
/// from that θ to this round's; the receiver overlays it in place.
struct ModelBroadcastMsg {
  std::uint64_t round = 0;
  std::uint8_t codec = static_cast<std::uint8_t>(fl::Codec::kDense);
  std::vector<std::uint8_t> checkpoint;  // kDense payload
  std::uint64_t base_round = 0;          // kDelta payload
  fl::SparseVector delta;                // kDelta payload

  void encode(util::ByteWriter& w) const;
  static ModelBroadcastMsg decode(util::ByteReader& r);
};

/// One worker's model update. With codec kDense the gradient travels as
/// the full f32 array (`gradient`); with kTopK as sorted sparse
/// (index, value) pairs (`sparse`). Servers call dense_gradient() at the
/// canonicalization point, so the assessment pipeline only ever sees
/// dense vectors regardless of what was on the wire.
struct GradientUploadMsg {
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

  void encode(util::ByteWriter& w) const;
  static GradientUploadMsg decode(util::ByteReader& r);
};

/// Quorum outcome of one round, published by the lead to every follower
/// replica before assessment runs: the exact (sorted) set of workers
/// whose uploads were counted. Followers feed their engines precisely
/// this set — workers not listed become uncertain events — which is what
/// keeps the deterministic replicas bit-identical even when the lead
/// proceeded on a partial round.
struct RoundSummaryMsg {
  std::uint64_t round = 0;
  std::uint8_t degraded = 0;  // counted < workers (quorum round)
  /// Executor-rotation token handoff: the server index that drives the
  /// NEXT round. Without rotation the executor names itself, so the field
  /// is also the authoritative "who is the lead right now" signal a
  /// rejoining server re-homes on.
  std::uint32_t next_executor = 0;
  std::vector<std::uint32_t> counted;

  void encode(util::ByteWriter& w) const;
  static RoundSummaryMsg decode(util::ByteReader& r);
};

/// Aggregated slice j of G̃ (Sec. 3.2: each server serves one slice).
/// `complete == 0` means the replica could not reproduce the lead's
/// counted upload set (e.g. a counted upload never reached it) and the
/// values carry no information — the lead tolerates the gap instead of
/// treating it as replica divergence.
struct SliceAggregateMsg {
  std::uint64_t round = 0;
  std::uint32_t server_index = 0;
  std::uint64_t offset = 0;  // first element of the slice within G̃
  std::uint8_t complete = 1;
  std::vector<float> values;

  void encode(util::ByteWriter& w) const;
  static SliceAggregateMsg decode(util::ByteReader& r);
};

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

struct AssessmentResultMsg {
  std::uint64_t round = 0;
  std::uint8_t degraded = 0;
  double fairness = 0.0;
  std::vector<WorkerAssessment> workers;
  /// The round's sealed audit records (detection/reputation/contribution/
  /// reward per worker), signatures included, so any receiver can verify
  /// them against a KeyRegistry replica.
  std::vector<chain::AuditRecord> records;

  void encode(util::ByteWriter& w) const;
  static AssessmentResultMsg decode(util::ByteReader& r);
};

/// Replicated-ledger commit protocol (see chain/replicated.hpp): the
/// round's executor proposes the block it sealed — header fields, its
/// signature over the header, and the records — so every follower can
/// recompute the block from its own replica state and detect a fork
/// field by field. All four ledger messages lead with the round number so
/// FaultyTransport's round-windowed partitions apply to them unchanged.
struct BlockProposalMsg {
  std::uint64_t round = 0;
  std::uint64_t block_index = 0;
  chain::Digest previous_hash{};
  chain::Digest merkle_root{};
  chain::Digest block_hash{};
  chain::Signature executor_sig;
  std::vector<chain::AuditRecord> records;

  chain::BlockHeader header() const;

  void encode(util::ByteWriter& w) const;
  static BlockProposalMsg decode(util::ByteReader& r);
};

/// A follower's signed endorsement of one proposed block: it recomputed
/// the identical header from its own deterministic replica.
struct BlockVoteMsg {
  std::uint64_t round = 0;
  std::uint64_t block_index = 0;
  chain::Digest block_hash{};
  chain::Signature vote;

  void encode(util::ByteWriter& w) const;
  static BlockVoteMsg decode(util::ByteReader& r);
};

/// Worker -> lead: "prove my (kind) record for round `round` is on the
/// committed chain". `token` is echoed in the answer so the worker can
/// pair responses with outstanding queries.
struct AuditQueryMsg {
  std::uint64_t round = 0;
  std::uint32_t worker = 0;
  std::uint64_t token = 0;
  std::uint8_t kind = 0;  // chain::RecordKind tag
  /// Proof caching: the worker has already verified committed headers
  /// [0, last_verified_index), so the server ships only headers from that
  /// index to the tip (O(1) per-round proof bytes instead of O(rounds)).
  std::uint64_t last_verified_index = 0;

  void encode(util::ByteWriter& w) const;
  static AuditQueryMsg decode(util::ByteReader& r);
};

/// Lead -> worker: the full chain::AuditProofBundle — record, Merkle
/// inclusion path, and the quorum-certified header chain — which the
/// worker verifies against its own KeyRegistry replica
/// (chain::verify_audit_proof), trusting no single server. found == 0
/// means no committed record matched and every other field is empty.
struct AuditProofMsg {
  std::uint64_t round = 0;
  std::uint32_t worker = 0;
  std::uint64_t token = 0;
  std::uint8_t found = 0;
  chain::AuditRecord record;
  std::uint64_t block_index = 0;
  std::uint64_t record_index = 0;
  chain::MerkleProof proof;
  /// Absolute chain index of headers[0] — nonzero when the server served
  /// a cached query (AuditQueryMsg::last_verified_index) and elided the
  /// prefix the worker already verified. The worker splices its cache back
  /// in before verify_audit_proof, which only accepts genesis-anchored
  /// bundles.
  std::uint64_t headers_from = 0;
  std::vector<chain::SealedBlockHeader> headers;

  chain::AuditProofBundle bundle() const;
  static AuditProofMsg from_bundle(std::uint64_t round, std::uint32_t worker,
                                   std::uint64_t token,
                                   const chain::AuditProofBundle& bundle);

  void encode(util::ByteWriter& w) const;
  static AuditProofMsg decode(util::ByteReader& r);
};

/// Server -> servers: "the executor for view `view - 1` is dead; I am the
/// highest-reputation survivor, here is my committed chain head, elect
/// me". Signed over canonical_payload() with the proposer's ledger key so
/// a worker or transport cannot forge an election. `round` is the round
/// the proposer will drive after takeover (its engine's next round).
struct ViewChangeMsg {
  std::uint64_t round = 0;
  std::uint64_t view = 0;
  std::uint32_t proposer_index = 0;  // server index of the proposer
  std::uint32_t dead_index = 0;      // server index the proposer suspects dead
  std::uint64_t committed_count = 0; // proposer's committed-prefix length
  chain::Digest head{};              // hash of the last committed block (zero when none)
  chain::Signature sig;

  /// Canonical byte string the proposer signs and voters countersign.
  std::string canonical_payload() const;

  void encode(util::ByteWriter& w) const;
  static ViewChangeMsg decode(util::ByteReader& r);
};

/// Server -> proposer: signed grant/nack of one ViewChange. A nack
/// carries the voter's own committed head so a behind proposer can
/// ChainSync from the voter before re-proposing.
struct ViewChangeVoteMsg {
  std::uint64_t round = 0;
  std::uint64_t view = 0;
  std::uint32_t proposer_index = 0;
  std::uint32_t voter_index = 0;
  std::uint8_t granted = 0;
  std::uint64_t committed_count = 0;  // the voter's committed-prefix length
  chain::Digest head{};               // the voter's committed chain head
  chain::Signature sig;

  std::string canonical_payload() const;

  void encode(util::ByteWriter& w) const;
  static ViewChangeVoteMsg decode(util::ByteReader& r);
};

/// Rejoining (or behind) server -> any live server: "ship me the
/// committed blocks from `from_block` so I can replay my replica up to
/// your tip". `round` is the requester's next engine round (== from_block
/// for an in-sync replica).
struct ChainSyncRequestMsg {
  std::uint64_t round = 0;
  std::uint32_t server_index = 0;  // the requester
  std::uint64_t from_block = 0;

  void encode(util::ByteWriter& w) const;
  static ChainSyncRequestMsg decode(util::ByteReader& r);
};

/// One committed block as served by ChainSync: the quorum certificate and
/// the full record list, enough for the receiver to replay the block into
/// its own engine and verify the recomputed chain bit for bit.
struct SyncedBlock {
  chain::SealedBlockHeader sealed;
  std::vector<chain::AuditRecord> records;
};

/// Server -> requester: committed blocks [from_block, from_block + n) plus
/// the responder's θ checkpoint at `theta_round` (the replica cannot
/// rebuild θ from audit records alone — the aggregated gradients are not
/// on the chain). ok == 0 means the responder could not serve a
/// consistent snapshot (its θ and committed prefix were mid-round);
/// the requester retries on the next round summary.
struct ChainSyncResponseMsg {
  std::uint64_t round = 0;
  std::uint64_t from_block = 0;
  std::uint8_t ok = 0;
  std::vector<SyncedBlock> blocks;
  std::uint64_t theta_round = 0;       // rounds applied to the shipped θ
  std::vector<std::uint8_t> theta;     // nn::checkpoint bytes

  void encode(util::ByteWriter& w) const;
  static ChainSyncResponseMsg decode(util::ByteReader& r);
};

/// chain::AuditRecord wire codec, shared by AssessmentResultMsg and any
/// future ledger-sync message.
void encode_audit_record(util::ByteWriter& w, const chain::AuditRecord& rec);
chain::AuditRecord decode_audit_record(util::ByteReader& r);

/// chain::Digest / chain::Signature / chain::SealedBlockHeader wire
/// codecs for the replicated-ledger messages.
void encode_digest(util::ByteWriter& w, const chain::Digest& digest);
chain::Digest decode_digest(util::ByteReader& r);
void encode_signature(util::ByteWriter& w, const chain::Signature& sig);
chain::Signature decode_signature(util::ByteReader& r);
void encode_sealed_header(util::ByteWriter& w,
                          const chain::SealedBlockHeader& sealed);
chain::SealedBlockHeader decode_sealed_header(util::ByteReader& r);

/// Encodes `msg` into a frame payload (ByteWriter buffer).
template <typename Msg>
std::vector<std::uint8_t> encode_payload(const Msg& msg) {
  util::ByteWriter writer;
  msg.encode(writer);
  return writer.take();
}

/// Decodes a full payload, requiring every byte to be consumed — trailing
/// garbage means a framing bug or corruption, not a valid message.
template <typename Msg>
Msg decode_payload(std::span<const std::uint8_t> payload) {
  util::ByteReader reader(payload);
  Msg msg = Msg::decode(reader);
  if (!reader.exhausted()) {
    throw util::SerializeError("message payload has trailing bytes");
  }
  return msg;
}

}  // namespace fifl::net
