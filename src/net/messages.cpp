#include "net/messages.hpp"

#include <limits>
#include <sstream>

namespace fifl::net {

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kJoin: return "join";
    case MessageType::kJoinAck: return "join_ack";
    case MessageType::kLeave: return "leave";
    case MessageType::kHeartbeat: return "heartbeat";
    case MessageType::kModelBroadcast: return "model_broadcast";
    case MessageType::kGradientUpload: return "gradient_upload";
    case MessageType::kSliceAggregate: return "slice_aggregate";
    case MessageType::kAssessmentResult: return "assessment_result";
    case MessageType::kRoundSummary: return "round_summary";
    case MessageType::kBlockProposal: return "block_proposal";
    case MessageType::kBlockVote: return "block_vote";
    case MessageType::kAuditQuery: return "audit_query";
    case MessageType::kAuditProof: return "audit_proof";
    case MessageType::kViewChange: return "view_change";
    case MessageType::kViewChangeVote: return "view_change_vote";
    case MessageType::kChainSyncRequest: return "chain_sync_request";
    case MessageType::kChainSyncResponse: return "chain_sync_response";
  }
  return "unknown";
}

namespace {

NodeRole decode_role(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(NodeRole::kServer)) {
    throw util::SerializeError("join: invalid node role " +
                               std::to_string(raw));
  }
  return static_cast<NodeRole>(raw);
}

std::uint8_t decode_flag(util::ByteReader& r, const char* what) {
  const std::uint8_t v = r.read_u8();
  if (v > 1) {
    throw util::SerializeError(std::string(what) + ": flag byte must be 0/1");
  }
  return v;
}

/// Codec tag with a per-message allowlist (uploads never carry kDelta,
/// broadcasts never carry kTopK).
std::uint8_t decode_codec(util::ByteReader& r, std::uint32_t allowed_mask,
                          const char* what) {
  const std::uint8_t v = r.read_u8();
  if (v > static_cast<std::uint8_t>(fl::Codec::kDelta) ||
      !fl::codec_in(allowed_mask, static_cast<fl::Codec>(v))) {
    throw util::SerializeError(std::string(what) + ": invalid codec " +
                               std::to_string(v));
  }
  return v;
}

}  // namespace

void JoinMsg::encode(util::ByteWriter& w) const {
  w.write_u32(node);
  w.write_u8(static_cast<std::uint8_t>(role));
  w.write_u32(codecs);
  w.write_u32(features);
  w.write_u64(clock_us);
}

JoinMsg JoinMsg::decode(util::ByteReader& r) {
  JoinMsg m;
  m.node = r.read_u32();
  m.role = decode_role(r.read_u8());
  m.codecs = r.read_u32();
  if (!fl::codec_in(m.codecs, fl::Codec::kDense)) {
    throw util::SerializeError("join: codec mask must include dense");
  }
  m.features = r.read_u32();
  m.clock_us = r.read_u64();
  return m;
}

void JoinAckMsg::encode(util::ByteWriter& w) const {
  w.write_u32(node);
  w.write_u32(workers);
  w.write_u32(servers);
  w.write_u64(param_count);
  w.write_u64(rounds);
  w.write_u8(upload_codec);
  w.write_u8(broadcast_codec);
  w.write_f64(keep_fraction);
  w.write_u32(features);
  w.write_u64(clock_us);
}

JoinAckMsg JoinAckMsg::decode(util::ByteReader& r) {
  JoinAckMsg m;
  m.node = r.read_u32();
  m.workers = r.read_u32();
  m.servers = r.read_u32();
  m.param_count = r.read_u64();
  m.rounds = r.read_u64();
  m.upload_codec = decode_codec(
      r, fl::codec_bit(fl::Codec::kDense) | fl::codec_bit(fl::Codec::kTopK),
      "join_ack upload");
  m.broadcast_codec = decode_codec(
      r, fl::codec_bit(fl::Codec::kDense) | fl::codec_bit(fl::Codec::kDelta),
      "join_ack broadcast");
  m.keep_fraction = r.read_f64();
  if (!(m.keep_fraction > 0.0) || m.keep_fraction > 1.0) {
    throw util::SerializeError("join_ack: keep_fraction outside (0,1]");
  }
  m.features = r.read_u32();
  m.clock_us = r.read_u64();
  return m;
}

void LeaveMsg::encode(util::ByteWriter& w) const {
  w.write_u32(node);
  w.write_string(reason);
}

LeaveMsg LeaveMsg::decode(util::ByteReader& r) {
  LeaveMsg m;
  m.node = r.read_u32();
  m.reason = r.read_string();
  return m;
}

void HeartbeatMsg::encode(util::ByteWriter& w) const {
  w.write_u32(node);
  w.write_u64(token);
  w.write_u8(echo);
}

HeartbeatMsg HeartbeatMsg::decode(util::ByteReader& r) {
  HeartbeatMsg m;
  m.node = r.read_u32();
  m.token = r.read_u64();
  m.echo = decode_flag(r, "heartbeat");
  return m;
}

void ModelBroadcastMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u8(codec);
  if (codec == static_cast<std::uint8_t>(fl::Codec::kDelta)) {
    w.write_u64(base_round);
    delta.encode(w);
  } else {
    w.write_u64(checkpoint.size());
    w.write_bytes(checkpoint);
  }
}

ModelBroadcastMsg ModelBroadcastMsg::decode(util::ByteReader& r) {
  ModelBroadcastMsg m;
  m.round = r.read_u64();
  m.codec = decode_codec(
      r, fl::codec_bit(fl::Codec::kDense) | fl::codec_bit(fl::Codec::kDelta),
      "model_broadcast");
  if (m.codec == static_cast<std::uint8_t>(fl::Codec::kDelta)) {
    m.base_round = r.read_u64();
    m.delta = fl::SparseVector::decode(r);
  } else {
    const std::uint64_t n = r.read_u64();
    if (n > r.remaining()) {
      throw util::SerializeError("model_broadcast: checkpoint length " +
                                 std::to_string(n) + " exceeds payload");
    }
    m.checkpoint = r.read_bytes(static_cast<std::size_t>(n));
  }
  return m;
}

fl::Gradient GradientUploadMsg::dense_gradient() const {
  fl::Gradient out;
  densify_into(out);
  return out;
}

void GradientUploadMsg::densify_into(fl::Gradient& out) const {
  if (codec == static_cast<std::uint8_t>(fl::Codec::kTopK)) {
    out.assign_zero(static_cast<std::size_t>(sparse.dense_size));
    sparse.apply_to(out.flat());
    return;
  }
  out.assign(gradient);
}

void GradientUploadMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u32(worker);
  w.write_u64(samples);
  w.write_u8(ground_truth_attack);
  w.write_u8(codec);
  if (codec == static_cast<std::uint8_t>(fl::Codec::kTopK)) {
    sparse.encode(w);
  } else {
    w.write_f32_array(gradient);
  }
}

GradientUploadMsg GradientUploadMsg::decode(util::ByteReader& r) {
  GradientUploadMsg m;
  m.round = r.read_u64();
  m.worker = r.read_u32();
  m.samples = r.read_u64();
  m.ground_truth_attack = decode_flag(r, "gradient_upload");
  m.codec = decode_codec(
      r, fl::codec_bit(fl::Codec::kDense) | fl::codec_bit(fl::Codec::kTopK),
      "gradient_upload");
  if (m.codec == static_cast<std::uint8_t>(fl::Codec::kTopK)) {
    m.sparse = fl::SparseVector::decode(r);
  } else {
    m.gradient = r.read_f32_array();
  }
  return m;
}

void RoundSummaryMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u8(degraded);
  w.write_u32(next_executor);
  w.write_u64(counted.size());
  for (std::uint32_t worker : counted) w.write_u32(worker);
}

RoundSummaryMsg RoundSummaryMsg::decode(util::ByteReader& r) {
  RoundSummaryMsg m;
  m.round = r.read_u64();
  m.degraded = decode_flag(r, "round_summary");
  m.next_executor = r.read_u32();
  const std::uint64_t n = r.read_u64();
  if (n > r.remaining() / 4) {
    throw util::SerializeError("round_summary: counted size exceeds payload");
  }
  m.counted.resize(static_cast<std::size_t>(n));
  for (std::uint32_t& worker : m.counted) worker = r.read_u32();
  return m;
}

void SliceAggregateMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u32(server_index);
  w.write_u64(offset);
  w.write_u8(complete);
  w.write_f32_array(values);
}

SliceAggregateMsg SliceAggregateMsg::decode(util::ByteReader& r) {
  SliceAggregateMsg m;
  m.round = r.read_u64();
  m.server_index = r.read_u32();
  m.offset = r.read_u64();
  m.complete = decode_flag(r, "slice_aggregate");
  m.values = r.read_f32_array();
  return m;
}

namespace {
// Minimum encoded sizes of the shared codecs below, for the decoders'
// count guards: a corrupted count is rejected before any allocation sized
// by it.
constexpr std::uint64_t kSignatureBytes = 4 + 32;  // signer + tag
// kind + round + subject + executor + value + signature.
constexpr std::uint64_t kAuditRecordBytes =
    1 + 8 + 4 + 4 + 8 + kSignatureBytes;
// index + 3 digests + executor signature + vote count (no votes).
constexpr std::uint64_t kSealedHeaderBytes = 8 + 3 * 32 + kSignatureBytes + 8;
}  // namespace

void encode_audit_record(util::ByteWriter& w, const chain::AuditRecord& rec) {
  w.write_u8(static_cast<std::uint8_t>(rec.kind));
  w.write_u64(rec.round);
  w.write_u32(rec.subject);
  w.write_u32(rec.executor);
  w.write_f64(rec.value);
  w.write_u32(rec.signature.signer);
  w.write_bytes(rec.signature.tag);
}

chain::AuditRecord decode_audit_record(util::ByteReader& r) {
  chain::AuditRecord rec;
  const std::uint8_t kind = r.read_u8();
  if (kind > static_cast<std::uint8_t>(chain::RecordKind::kServerSelection)) {
    throw util::SerializeError("audit record: invalid kind " +
                               std::to_string(kind));
  }
  rec.kind = static_cast<chain::RecordKind>(kind);
  rec.round = r.read_u64();
  rec.subject = r.read_u32();
  rec.executor = r.read_u32();
  rec.value = r.read_f64();
  rec.signature.signer = r.read_u32();
  const auto tag = r.read_bytes(rec.signature.tag.size());
  std::copy(tag.begin(), tag.end(), rec.signature.tag.begin());
  return rec;
}

void encode_digest(util::ByteWriter& w, const chain::Digest& digest) {
  w.write_bytes(digest);
}

chain::Digest decode_digest(util::ByteReader& r) {
  chain::Digest digest{};
  const auto bytes = r.read_bytes(digest.size());
  std::copy(bytes.begin(), bytes.end(), digest.begin());
  return digest;
}

void encode_signature(util::ByteWriter& w, const chain::Signature& sig) {
  w.write_u32(sig.signer);
  encode_digest(w, sig.tag);
}

chain::Signature decode_signature(util::ByteReader& r) {
  chain::Signature sig;
  sig.signer = r.read_u32();
  sig.tag = decode_digest(r);
  return sig;
}

void encode_sealed_header(util::ByteWriter& w,
                          const chain::SealedBlockHeader& sealed) {
  w.write_u64(sealed.header.index);
  encode_digest(w, sealed.header.previous_hash);
  encode_digest(w, sealed.header.merkle_root);
  encode_digest(w, sealed.header.block_hash);
  encode_signature(w, sealed.executor_sig);
  w.write_u64(sealed.votes.size());
  for (const chain::Signature& vote : sealed.votes) {
    encode_signature(w, vote);
  }
}

chain::SealedBlockHeader decode_sealed_header(util::ByteReader& r) {
  chain::SealedBlockHeader sealed;
  sealed.header.index = r.read_u64();
  sealed.header.previous_hash = decode_digest(r);
  sealed.header.merkle_root = decode_digest(r);
  sealed.header.block_hash = decode_digest(r);
  sealed.executor_sig = decode_signature(r);
  const std::uint64_t n_votes = r.read_u64();
  if (n_votes > r.remaining() / kSignatureBytes) {
    throw util::SerializeError("sealed header: vote count exceeds payload");
  }
  sealed.votes.reserve(static_cast<std::size_t>(n_votes));
  for (std::uint64_t i = 0; i < n_votes; ++i) {
    sealed.votes.push_back(decode_signature(r));
  }
  return sealed;
}

chain::BlockHeader BlockProposalMsg::header() const {
  chain::BlockHeader h;
  h.index = block_index;
  h.previous_hash = previous_hash;
  h.merkle_root = merkle_root;
  h.block_hash = block_hash;
  return h;
}

void BlockProposalMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u64(block_index);
  encode_digest(w, previous_hash);
  encode_digest(w, merkle_root);
  encode_digest(w, block_hash);
  encode_signature(w, executor_sig);
  w.write_u64(records.size());
  for (const chain::AuditRecord& rec : records) {
    encode_audit_record(w, rec);
  }
}

BlockProposalMsg BlockProposalMsg::decode(util::ByteReader& r) {
  BlockProposalMsg m;
  m.round = r.read_u64();
  m.block_index = r.read_u64();
  m.previous_hash = decode_digest(r);
  m.merkle_root = decode_digest(r);
  m.block_hash = decode_digest(r);
  m.executor_sig = decode_signature(r);
  const std::uint64_t n_records = r.read_u64();
  if (n_records > r.remaining() / kAuditRecordBytes) {
    throw util::SerializeError("block_proposal: record count exceeds payload");
  }
  m.records.reserve(static_cast<std::size_t>(n_records));
  for (std::uint64_t i = 0; i < n_records; ++i) {
    m.records.push_back(decode_audit_record(r));
  }
  return m;
}

void BlockVoteMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u64(block_index);
  encode_digest(w, block_hash);
  encode_signature(w, vote);
}

BlockVoteMsg BlockVoteMsg::decode(util::ByteReader& r) {
  BlockVoteMsg m;
  m.round = r.read_u64();
  m.block_index = r.read_u64();
  m.block_hash = decode_digest(r);
  m.vote = decode_signature(r);
  return m;
}

void AuditQueryMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u32(worker);
  w.write_u64(token);
  w.write_u8(kind);
  w.write_u64(last_verified_index);
}

AuditQueryMsg AuditQueryMsg::decode(util::ByteReader& r) {
  AuditQueryMsg m;
  m.round = r.read_u64();
  m.worker = r.read_u32();
  m.token = r.read_u64();
  m.kind = r.read_u8();
  if (m.kind >
      static_cast<std::uint8_t>(chain::RecordKind::kServerSelection)) {
    throw util::SerializeError("audit_query: invalid record kind " +
                               std::to_string(m.kind));
  }
  m.last_verified_index = r.read_u64();
  return m;
}

chain::AuditProofBundle AuditProofMsg::bundle() const {
  chain::AuditProofBundle b;
  b.found = found != 0;
  b.record = record;
  b.block_index = block_index;
  b.record_index = record_index;
  b.proof = proof;
  b.headers_from = headers_from;
  b.headers = headers;
  return b;
}

AuditProofMsg AuditProofMsg::from_bundle(
    std::uint64_t round, std::uint32_t worker, std::uint64_t token,
    const chain::AuditProofBundle& bundle) {
  AuditProofMsg m;
  m.round = round;
  m.worker = worker;
  m.token = token;
  m.found = bundle.found ? 1 : 0;
  if (bundle.found) {
    m.record = bundle.record;
    m.block_index = bundle.block_index;
    m.record_index = bundle.record_index;
    m.proof = bundle.proof;
    m.headers_from = bundle.headers_from;
    m.headers = bundle.headers;
  }
  return m;
}

void AuditProofMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u32(worker);
  w.write_u64(token);
  w.write_u8(found);
  if (found == 0) return;  // a miss carries no proof material at all
  encode_audit_record(w, record);
  w.write_u64(block_index);
  w.write_u64(record_index);
  w.write_u64(proof.size());
  for (const chain::MerkleProofStep& step : proof) {
    encode_digest(w, step.sibling);
    w.write_u8(step.sibling_on_left ? 1 : 0);
  }
  w.write_u64(headers_from);
  w.write_u64(headers.size());
  for (const chain::SealedBlockHeader& sealed : headers) {
    encode_sealed_header(w, sealed);
  }
}

AuditProofMsg AuditProofMsg::decode(util::ByteReader& r) {
  constexpr std::uint64_t kProofStepBytes = 32 + 1;
  AuditProofMsg m;
  m.round = r.read_u64();
  m.worker = r.read_u32();
  m.token = r.read_u64();
  m.found = decode_flag(r, "audit_proof");
  if (m.found == 0) return m;
  m.record = decode_audit_record(r);
  m.block_index = r.read_u64();
  m.record_index = r.read_u64();
  const std::uint64_t n_steps = r.read_u64();
  if (n_steps > r.remaining() / kProofStepBytes) {
    throw util::SerializeError("audit_proof: proof length exceeds payload");
  }
  m.proof.reserve(static_cast<std::size_t>(n_steps));
  for (std::uint64_t i = 0; i < n_steps; ++i) {
    chain::MerkleProofStep step;
    step.sibling = decode_digest(r);
    step.sibling_on_left = decode_flag(r, "audit_proof") != 0;
    m.proof.push_back(step);
  }
  m.headers_from = r.read_u64();
  const std::uint64_t n_headers = r.read_u64();
  if (n_headers > r.remaining() / kSealedHeaderBytes) {
    throw util::SerializeError("audit_proof: header count exceeds payload");
  }
  m.headers.reserve(static_cast<std::size_t>(n_headers));
  for (std::uint64_t i = 0; i < n_headers; ++i) {
    m.headers.push_back(decode_sealed_header(r));
  }
  // The shipped headers cover chain indices [headers_from, headers_from +
  // n_headers); the proved block must lie under the implied tip (its
  // header is either shipped here or already in the querier's cache).
  if (m.headers_from > std::numeric_limits<std::uint64_t>::max() - n_headers ||
      m.block_index >= m.headers_from + n_headers) {
    throw util::SerializeError(
        "audit_proof: block index outside the header chain");
  }
  return m;
}

void AssessmentResultMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u8(degraded);
  w.write_f64(fairness);
  w.write_u64(workers.size());
  for (const WorkerAssessment& wa : workers) {
    w.write_u32(wa.worker);
    w.write_u8(wa.arrived);
    w.write_u8(wa.accepted);
    w.write_u8(wa.uncertain);
    w.write_f64(wa.score);
    w.write_f64(wa.reputation);
    w.write_f64(wa.contribution);
    w.write_f64(wa.reward);
  }
  w.write_u64(records.size());
  for (const chain::AuditRecord& rec : records) {
    encode_audit_record(w, rec);
  }
}

AssessmentResultMsg AssessmentResultMsg::decode(util::ByteReader& r) {
  // Per-entry minimum encoded sizes, used to reject corrupted counts
  // before any allocation sized by them.
  constexpr std::uint64_t kWorkerBytes = 4 + 3 + 4 * 8;
  AssessmentResultMsg m;
  m.round = r.read_u64();
  m.degraded = decode_flag(r, "assessment");
  m.fairness = r.read_f64();
  const std::uint64_t n_workers = r.read_u64();
  if (n_workers > r.remaining() / kWorkerBytes) {
    throw util::SerializeError("assessment: worker count exceeds payload");
  }
  m.workers.resize(static_cast<std::size_t>(n_workers));
  for (WorkerAssessment& wa : m.workers) {
    wa.worker = r.read_u32();
    wa.arrived = decode_flag(r, "assessment");
    wa.accepted = decode_flag(r, "assessment");
    wa.uncertain = decode_flag(r, "assessment");
    wa.score = r.read_f64();
    wa.reputation = r.read_f64();
    wa.contribution = r.read_f64();
    wa.reward = r.read_f64();
  }
  const std::uint64_t n_records = r.read_u64();
  if (n_records > r.remaining() / kAuditRecordBytes) {
    throw util::SerializeError("assessment: record count exceeds payload");
  }
  m.records.reserve(static_cast<std::size_t>(n_records));
  for (std::uint64_t i = 0; i < n_records; ++i) {
    m.records.push_back(decode_audit_record(r));
  }
  return m;
}

std::string ViewChangeMsg::canonical_payload() const {
  std::ostringstream os;
  os << "viewchange|" << round << '|' << view << '|' << proposer_index << '|'
     << dead_index << '|' << committed_count << '|' << chain::to_hex(head);
  return os.str();
}

void ViewChangeMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u64(view);
  w.write_u32(proposer_index);
  w.write_u32(dead_index);
  w.write_u64(committed_count);
  encode_digest(w, head);
  encode_signature(w, sig);
}

ViewChangeMsg ViewChangeMsg::decode(util::ByteReader& r) {
  ViewChangeMsg m;
  m.round = r.read_u64();
  m.view = r.read_u64();
  m.proposer_index = r.read_u32();
  m.dead_index = r.read_u32();
  m.committed_count = r.read_u64();
  m.head = decode_digest(r);
  m.sig = decode_signature(r);
  return m;
}

std::string ViewChangeVoteMsg::canonical_payload() const {
  std::ostringstream os;
  os << "viewchangevote|" << round << '|' << view << '|' << proposer_index
     << '|' << voter_index << '|' << static_cast<unsigned>(granted) << '|'
     << committed_count << '|' << chain::to_hex(head);
  return os.str();
}

void ViewChangeVoteMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u64(view);
  w.write_u32(proposer_index);
  w.write_u32(voter_index);
  w.write_u8(granted);
  w.write_u64(committed_count);
  encode_digest(w, head);
  encode_signature(w, sig);
}

ViewChangeVoteMsg ViewChangeVoteMsg::decode(util::ByteReader& r) {
  ViewChangeVoteMsg m;
  m.round = r.read_u64();
  m.view = r.read_u64();
  m.proposer_index = r.read_u32();
  m.voter_index = r.read_u32();
  m.granted = decode_flag(r, "view_change_vote");
  m.committed_count = r.read_u64();
  m.head = decode_digest(r);
  m.sig = decode_signature(r);
  return m;
}

void ChainSyncRequestMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u32(server_index);
  w.write_u64(from_block);
}

ChainSyncRequestMsg ChainSyncRequestMsg::decode(util::ByteReader& r) {
  ChainSyncRequestMsg m;
  m.round = r.read_u64();
  m.server_index = r.read_u32();
  m.from_block = r.read_u64();
  return m;
}

void ChainSyncResponseMsg::encode(util::ByteWriter& w) const {
  w.write_u64(round);
  w.write_u64(from_block);
  w.write_u8(ok);
  if (ok == 0) return;  // a refusal carries no chain material
  w.write_u64(blocks.size());
  for (const SyncedBlock& block : blocks) {
    encode_sealed_header(w, block.sealed);
    w.write_u64(block.records.size());
    for (const chain::AuditRecord& rec : block.records) {
      encode_audit_record(w, rec);
    }
  }
  w.write_u64(theta_round);
  w.write_u64(theta.size());
  w.write_bytes(theta);
}

ChainSyncResponseMsg ChainSyncResponseMsg::decode(util::ByteReader& r) {
  // Per-entry minimum encoded sizes, used to reject corrupted counts
  // before any allocation sized by them.
  // A sealed header plus the record count.
  constexpr std::uint64_t kBlockBytes = kSealedHeaderBytes + 8;
  ChainSyncResponseMsg m;
  m.round = r.read_u64();
  m.from_block = r.read_u64();
  m.ok = decode_flag(r, "chain_sync_response");
  if (m.ok == 0) return m;
  const std::uint64_t n_blocks = r.read_u64();
  if (n_blocks > r.remaining() / kBlockBytes) {
    throw util::SerializeError(
        "chain_sync_response: block count exceeds payload");
  }
  m.blocks.reserve(static_cast<std::size_t>(n_blocks));
  for (std::uint64_t b = 0; b < n_blocks; ++b) {
    SyncedBlock block;
    block.sealed = decode_sealed_header(r);
    const std::uint64_t n_records = r.read_u64();
    if (n_records > r.remaining() / kAuditRecordBytes) {
      throw util::SerializeError(
          "chain_sync_response: record count exceeds payload");
    }
    block.records.reserve(static_cast<std::size_t>(n_records));
    for (std::uint64_t i = 0; i < n_records; ++i) {
      block.records.push_back(decode_audit_record(r));
    }
    m.blocks.push_back(std::move(block));
  }
  m.theta_round = r.read_u64();
  const std::uint64_t theta_len = r.read_u64();
  if (theta_len > r.remaining()) {
    throw util::SerializeError(
        "chain_sync_response: checkpoint length exceeds payload");
  }
  m.theta = r.read_bytes(static_cast<std::size_t>(theta_len));
  return m;
}

}  // namespace fifl::net
