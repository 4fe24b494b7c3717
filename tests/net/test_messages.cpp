// Wire-schema round trips plus the malformed-payload property: every
// strict prefix of a valid payload must throw SerializeError, and no
// decode may accept trailing bytes.
#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <utility>

#include "chain/sha256.hpp"
#include "chain/signature.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "util/rng.hpp"

namespace fifl::net {
namespace {

template <typename Msg>
void expect_all_truncations_throw(const Msg& msg) {
  const auto payload = encode_payload(msg);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(decode_payload<Msg>(std::span(payload).first(len)),
                 util::SerializeError)
        << "prefix length " << len << " of " << payload.size();
  }
}

template <typename Msg>
void expect_rejects_trailing_bytes(const Msg& msg) {
  auto payload = encode_payload(msg);
  payload.push_back(0);
  EXPECT_THROW(decode_payload<Msg>(payload), util::SerializeError);
}

TEST(Messages, JoinRoundTrip) {
  const JoinMsg msg{17, NodeRole::kServer};
  const auto back = decode_payload<JoinMsg>(encode_payload(msg));
  EXPECT_EQ(back.node, 17u);
  EXPECT_EQ(back.role, NodeRole::kServer);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, JoinRejectsUnknownRole) {
  util::ByteWriter w;
  w.write_u32(1);
  w.write_u8(7);  // not a NodeRole
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<JoinMsg>(payload), util::SerializeError);
}

TEST(Messages, JoinAckRoundTrip) {
  const JoinAckMsg msg{3, 8, 2, 1210, 25};
  const auto back = decode_payload<JoinAckMsg>(encode_payload(msg));
  EXPECT_EQ(back.node, 3u);
  EXPECT_EQ(back.workers, 8u);
  EXPECT_EQ(back.servers, 2u);
  EXPECT_EQ(back.param_count, 1210u);
  EXPECT_EQ(back.rounds, 25u);
  expect_all_truncations_throw(msg);
}

TEST(Messages, JoinTraceFeatureExtensionRoundTrips) {
  JoinMsg msg{17, NodeRole::kWorker, fl::kAllCodecs};
  msg.features = kFeatureTrace;
  msg.clock_us = 123456789ull;
  const auto back = decode_payload<JoinMsg>(encode_payload(msg));
  EXPECT_EQ(back.features, kFeatureTrace);
  EXPECT_EQ(back.clock_us, 123456789ull);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

/// The feature/clock fields are part of every Join and JoinAck: a payload
/// without them (the layout before tracing existed) is truncated.
constexpr std::size_t kFeatureExtensionBytes = 12;  // u32 features + u64 clock

TEST(Messages, JoinWithoutExtensionIsRejected) {
  const auto payload =
      encode_payload(JoinMsg{17, NodeRole::kWorker, fl::kAllCodecs});
  EXPECT_THROW(decode_payload<JoinMsg>(std::span(payload).first(
                   payload.size() - kFeatureExtensionBytes)),
               util::SerializeError);
}

TEST(Messages, JoinAckTraceFeatureExtensionRoundTrips) {
  JoinAckMsg msg{3, 8, 2, 1210, 25};
  msg.features = kFeatureTrace;
  msg.clock_us = 42424242ull;
  const auto back = decode_payload<JoinAckMsg>(encode_payload(msg));
  EXPECT_EQ(back.features, kFeatureTrace);
  EXPECT_EQ(back.clock_us, 42424242ull);
  expect_all_truncations_throw(msg);
}

TEST(Messages, JoinAckWithoutExtensionIsRejected) {
  const auto payload = encode_payload(JoinAckMsg{3, 8, 2, 1210, 25});
  EXPECT_THROW(decode_payload<JoinAckMsg>(std::span(payload).first(
                   payload.size() - kFeatureExtensionBytes)),
               util::SerializeError);
}

TEST(Messages, LeaveRoundTrip) {
  const LeaveMsg msg{9, "training complete"};
  const auto back = decode_payload<LeaveMsg>(encode_payload(msg));
  EXPECT_EQ(back.node, 9u);
  EXPECT_EQ(back.reason, "training complete");
  expect_all_truncations_throw(msg);
}

TEST(Messages, HeartbeatRoundTrip) {
  const HeartbeatMsg msg{4, 0xdeadbeefcafeull, 1};
  const auto back = decode_payload<HeartbeatMsg>(encode_payload(msg));
  EXPECT_EQ(back.node, 4u);
  EXPECT_EQ(back.token, 0xdeadbeefcafeull);
  EXPECT_EQ(back.echo, 1);
  expect_all_truncations_throw(msg);
}

TEST(Messages, HeartbeatRejectsNonBinaryEcho) {
  util::ByteWriter w;
  w.write_u32(4);
  w.write_u64(1);
  w.write_u8(2);  // echo must be 0/1
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<HeartbeatMsg>(payload), util::SerializeError);
}

TEST(Messages, ModelBroadcastRoundTrip) {
  util::Rng rng(5);
  ModelBroadcastMsg msg;
  msg.round = 12;
  msg.checkpoint.resize(500);
  for (auto& b : msg.checkpoint) {
    b = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
  }
  const auto back = decode_payload<ModelBroadcastMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 12u);
  EXPECT_EQ(back.checkpoint, msg.checkpoint);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, GradientUploadRoundTrip) {
  util::Rng rng(6);
  GradientUploadMsg msg;
  msg.round = 3;
  msg.worker = 5;
  msg.samples = 120;
  msg.ground_truth_attack = 1;
  msg.gradient.resize(1210);
  for (auto& g : msg.gradient) g = static_cast<float>(rng.gaussian());
  const auto back = decode_payload<GradientUploadMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 3u);
  EXPECT_EQ(back.worker, 5u);
  EXPECT_EQ(back.samples, 120u);
  EXPECT_EQ(back.ground_truth_attack, 1);
  EXPECT_EQ(back.gradient, msg.gradient);
  expect_all_truncations_throw(msg);
}

TEST(Messages, SliceAggregateRoundTrip) {
  SliceAggregateMsg msg;
  msg.round = 7;
  msg.server_index = 1;
  msg.offset = 605;
  msg.values = {1.0f, -2.5f, 0.0f, 3.25f};
  const auto back = decode_payload<SliceAggregateMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 7u);
  EXPECT_EQ(back.server_index, 1u);
  EXPECT_EQ(back.offset, 605u);
  EXPECT_EQ(back.complete, 1u);  // default: the replica reproduced the round
  EXPECT_EQ(back.values, msg.values);
  expect_all_truncations_throw(msg);
}

TEST(Messages, SliceAggregateCarriesIncompleteFlag) {
  SliceAggregateMsg msg;
  msg.round = 3;
  msg.server_index = 2;
  msg.offset = 40;
  msg.complete = 0;  // replica could not reproduce the counted set
  const auto back = decode_payload<SliceAggregateMsg>(encode_payload(msg));
  EXPECT_EQ(back.complete, 0u);
  EXPECT_TRUE(back.values.empty());
}

TEST(Messages, RoundSummaryRoundTrip) {
  RoundSummaryMsg msg;
  msg.round = 12;
  msg.degraded = 1;
  msg.next_executor = 2;
  msg.counted = {0, 2, 3, 7};
  const auto back = decode_payload<RoundSummaryMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 12u);
  EXPECT_EQ(back.degraded, 1u);
  EXPECT_EQ(back.next_executor, 2u);
  EXPECT_EQ(back.counted, msg.counted);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, RoundSummaryCountGuardRejectsHugeClaims) {
  RoundSummaryMsg msg;
  msg.round = 1;
  msg.counted = {4, 5};
  auto payload = encode_payload(msg);
  // Rewrite the count (bytes 13..20, after round + degraded flag +
  // next_executor) to claim far more entries than the payload carries.
  payload[13] = 0xff;
  payload[14] = 0xff;
  EXPECT_THROW(decode_payload<RoundSummaryMsg>(payload),
               util::SerializeError);
}

AssessmentResultMsg sample_assessment() {
  AssessmentResultMsg msg;
  msg.round = 4;
  msg.degraded = 0;
  msg.fairness = 0.93;
  for (std::uint32_t i = 0; i < 3; ++i) {
    WorkerAssessment wa;
    wa.worker = i;
    wa.arrived = 1;
    wa.accepted = i != 2;
    wa.uncertain = 0;
    wa.score = 0.8 - 0.3 * i;
    wa.reputation = 0.5 + 0.1 * i;
    wa.contribution = 0.2 * i;
    wa.reward = 0.1 * i - 0.05;
    msg.workers.push_back(wa);
  }
  chain::KeyRegistry registry(0xfeedu);
  registry.register_node(1);
  chain::Ledger ledger(&registry);
  ledger.append(chain::RecordKind::kDetection, 4, 0, 1, 1.0);
  ledger.append(chain::RecordKind::kReward, 4, 0, 1, 0.25);
  ledger.seal_block();
  msg.records = ledger.query(std::nullopt, 4, std::nullopt);
  return msg;
}

TEST(Messages, AssessmentResultRoundTrip) {
  const AssessmentResultMsg msg = sample_assessment();
  ASSERT_EQ(msg.records.size(), 2u);
  const auto back = decode_payload<AssessmentResultMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 4u);
  EXPECT_EQ(back.degraded, 0);
  EXPECT_DOUBLE_EQ(back.fairness, 0.93);
  ASSERT_EQ(back.workers.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.workers[i].worker, i);
    EXPECT_DOUBLE_EQ(back.workers[i].reputation, 0.5 + 0.1 * i);
    EXPECT_DOUBLE_EQ(back.workers[i].reward, 0.1 * i - 0.05);
  }
  ASSERT_EQ(back.records.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(back.records[k].kind, msg.records[k].kind);
    EXPECT_EQ(back.records[k].round, msg.records[k].round);
    EXPECT_EQ(back.records[k].subject, msg.records[k].subject);
    EXPECT_EQ(back.records[k].executor, msg.records[k].executor);
    EXPECT_DOUBLE_EQ(back.records[k].value, msg.records[k].value);
    EXPECT_EQ(back.records[k].signature, msg.records[k].signature);
  }
}

TEST(Messages, AssessmentResultTruncationsThrow) {
  expect_all_truncations_throw(sample_assessment());
}

TEST(Messages, DecodedRecordsStillVerify) {
  // Signatures must survive the wire: a receiver with a KeyRegistry
  // replica can authenticate the lead's published records.
  chain::KeyRegistry registry(0xfeedu);
  registry.register_node(1);
  const AssessmentResultMsg msg = sample_assessment();
  const auto back = decode_payload<AssessmentResultMsg>(encode_payload(msg));
  for (const chain::AuditRecord& rec : back.records) {
    EXPECT_TRUE(registry.verify(rec.signature, rec.canonical_payload()));
  }
}

TEST(Messages, MessageTypeTableIsTotalAndDistinct) {
  // Names and frame tags of every MessageType; the codec of each is
  // covered by the WireCodec suite over WireMessages below.
  const std::pair<MessageType, const char*> table[] = {
      {MessageType::kJoin, "join"},
      {MessageType::kJoinAck, "join_ack"},
      {MessageType::kLeave, "leave"},
      {MessageType::kHeartbeat, "heartbeat"},
      {MessageType::kModelBroadcast, "model_broadcast"},
      {MessageType::kGradientUpload, "gradient_upload"},
      {MessageType::kSliceAggregate, "slice_aggregate"},
      {MessageType::kAssessmentResult, "assessment_result"},
      {MessageType::kRoundSummary, "round_summary"},
      {MessageType::kBlockProposal, "block_proposal"},
      {MessageType::kBlockVote, "block_vote"},
      {MessageType::kAuditQuery, "audit_query"},
      {MessageType::kAuditProof, "audit_proof"},
      {MessageType::kViewChange, "view_change"},
      {MessageType::kViewChangeVote, "view_change_vote"},
      {MessageType::kChainSyncRequest, "chain_sync_request"},
      {MessageType::kChainSyncResponse, "chain_sync_response"},
  };
  // The derived count (last enumerator) and this table must agree; a new
  // enumerator without a table row fails here, a stale kMessageTypeCount
  // can no longer exist (it is not hand-maintained).
  EXPECT_EQ(std::size(table), kMessageTypeCount);
  std::set<std::uint8_t> tags;
  for (const auto& [type, name] : table) {
    EXPECT_STREQ(message_type_name(type), name);
    EXPECT_TRUE(tags.insert(static_cast<std::uint8_t>(type)).second)
        << name << " reuses another message's wire tag";
    // Every tag must survive the frame header byte unchanged.
    const auto bytes = encode_frame(static_cast<std::uint8_t>(type), 7, {});
    FrameDecoder decoder;
    decoder.feed(bytes);
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value()) << name;
    EXPECT_EQ(frame->type, static_cast<std::uint8_t>(type)) << name;
  }
}

TEST(Messages, GradientCountGuardRejectsHugeClaims) {
  // A corrupted count field must throw before any allocation is attempted.
  util::ByteWriter w;
  w.write_u64(3);   // round
  w.write_u32(0);   // worker
  w.write_u64(10);  // samples
  w.write_u8(0);    // ground_truth_attack
  w.write_u8(0);    // codec (kDense)
  w.write_u64(0xFFFFFFFFFFFFull);  // gradient count claim, no data
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<GradientUploadMsg>(payload),
               util::SerializeError);
}

TEST(Messages, JoinCarriesCodecMask) {
  JoinMsg msg{21, NodeRole::kWorker, fl::kAllCodecs};
  const auto back = decode_payload<JoinMsg>(encode_payload(msg));
  EXPECT_EQ(back.codecs, fl::kAllCodecs);
  EXPECT_TRUE(fl::codec_in(back.codecs, fl::Codec::kTopK));
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, JoinRejectsMaskWithoutDense) {
  // kDense is the negotiation fallback; a mask without it is unusable.
  util::ByteWriter w;
  w.write_u32(1);
  w.write_u8(0);  // role
  w.write_u32(fl::codec_bit(fl::Codec::kTopK));
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<JoinMsg>(payload), util::SerializeError);
}

TEST(Messages, JoinAckCarriesNegotiatedCodecs) {
  JoinAckMsg msg{3, 8, 2, 1210, 25};
  msg.upload_codec = static_cast<std::uint8_t>(fl::Codec::kTopK);
  msg.broadcast_codec = static_cast<std::uint8_t>(fl::Codec::kDelta);
  msg.keep_fraction = 0.1;
  const auto back = decode_payload<JoinAckMsg>(encode_payload(msg));
  EXPECT_EQ(back.upload_codec, static_cast<std::uint8_t>(fl::Codec::kTopK));
  EXPECT_EQ(back.broadcast_codec,
            static_cast<std::uint8_t>(fl::Codec::kDelta));
  EXPECT_DOUBLE_EQ(back.keep_fraction, 0.1);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, JoinAckRejectsDirectionMismatchedCodecs) {
  // Uploads never travel as kDelta, broadcasts never as kTopK.
  JoinAckMsg msg{3, 8, 2, 1210, 25};
  auto payload = encode_payload(msg);
  // upload_codec byte: before broadcast_codec, keep_fraction and the
  // feature/clock fields.
  const std::size_t codec_off = payload.size() - 10 - kFeatureExtensionBytes;
  payload[codec_off] = static_cast<std::uint8_t>(fl::Codec::kDelta);
  EXPECT_THROW(decode_payload<JoinAckMsg>(payload), util::SerializeError);
  payload[codec_off] = static_cast<std::uint8_t>(fl::Codec::kDense);
  payload[codec_off + 1] = static_cast<std::uint8_t>(fl::Codec::kTopK);
  EXPECT_THROW(decode_payload<JoinAckMsg>(payload), util::SerializeError);
}

TEST(Messages, JoinAckRejectsKeepFractionOutsideUnitInterval) {
  JoinAckMsg msg{3, 8, 2, 1210, 25};
  for (const double bad : {0.0, -0.5, 1.5}) {
    msg.keep_fraction = bad;
    EXPECT_THROW(decode_payload<JoinAckMsg>(encode_payload(msg)),
                 util::SerializeError)
        << "keep_fraction " << bad;
  }
}

TEST(Messages, ModelBroadcastDeltaRoundTrip) {
  ModelBroadcastMsg msg;
  msg.round = 9;
  msg.codec = static_cast<std::uint8_t>(fl::Codec::kDelta);
  msg.base_round = 8;
  msg.delta.dense_size = 100;
  msg.delta.indices = {2, 40, 99};
  msg.delta.values = {1.5f, -0.25f, 3.0f};
  const auto back = decode_payload<ModelBroadcastMsg>(encode_payload(msg));
  EXPECT_EQ(back.codec, static_cast<std::uint8_t>(fl::Codec::kDelta));
  EXPECT_EQ(back.base_round, 8u);
  EXPECT_EQ(back.delta.dense_size, 100u);
  EXPECT_EQ(back.delta.indices, msg.delta.indices);
  EXPECT_EQ(back.delta.values, msg.delta.values);
  EXPECT_TRUE(back.checkpoint.empty());
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, ModelBroadcastRejectsTopKCodec) {
  util::ByteWriter w;
  w.write_u64(1);
  w.write_u8(static_cast<std::uint8_t>(fl::Codec::kTopK));
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<ModelBroadcastMsg>(payload),
               util::SerializeError);
}

GradientUploadMsg sample_sparse_upload() {
  GradientUploadMsg msg;
  msg.round = 3;
  msg.worker = 5;
  msg.samples = 120;
  msg.codec = static_cast<std::uint8_t>(fl::Codec::kTopK);
  msg.sparse.dense_size = 1210;
  msg.sparse.indices = {0, 7, 600, 1209};
  msg.sparse.values = {0.5f, -2.0f, 1.25f, -0.125f};
  return msg;
}

TEST(Messages, GradientUploadTopKRoundTrip) {
  const GradientUploadMsg msg = sample_sparse_upload();
  const auto back = decode_payload<GradientUploadMsg>(encode_payload(msg));
  EXPECT_EQ(back.codec, static_cast<std::uint8_t>(fl::Codec::kTopK));
  EXPECT_EQ(back.sparse.dense_size, 1210u);
  EXPECT_EQ(back.sparse.indices, msg.sparse.indices);
  EXPECT_EQ(back.sparse.values, msg.sparse.values);
  const fl::Gradient dense = back.dense_gradient();
  ASSERT_EQ(dense.size(), 1210u);
  EXPECT_EQ(dense[7], -2.0f);
  EXPECT_EQ(dense[8], 0.0f);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, GradientUploadRejectsDeltaCodec) {
  util::ByteWriter w;
  w.write_u64(3);
  w.write_u32(0);
  w.write_u64(10);
  w.write_u8(0);
  w.write_u8(static_cast<std::uint8_t>(fl::Codec::kDelta));
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<GradientUploadMsg>(payload),
               util::SerializeError);
}

/// Re-encodes the sample sparse upload with its index array replaced, to
/// prove decode validates index structure, not just lengths.
std::vector<std::uint8_t> sparse_upload_with_indices(
    const std::vector<std::uint32_t>& indices) {
  GradientUploadMsg msg = sample_sparse_upload();
  util::ByteWriter w;
  w.write_u64(msg.round);
  w.write_u32(msg.worker);
  w.write_u64(msg.samples);
  w.write_u8(msg.ground_truth_attack);
  w.write_u8(msg.codec);
  w.write_u64(msg.sparse.dense_size);
  w.write_u64(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    fl::write_index_varint(w, indices[i]);
    w.write_f32(msg.sparse.values[i % msg.sparse.values.size()]);
  }
  return w.take();
}

TEST(Messages, SparseUploadRejectsDuplicateIndices) {
  const auto payload = sparse_upload_with_indices({0, 7, 7, 1209});
  EXPECT_THROW(decode_payload<GradientUploadMsg>(payload),
               util::SerializeError);
}

TEST(Messages, SparseUploadRejectsNonMonotonicIndices) {
  const auto payload = sparse_upload_with_indices({0, 600, 7, 1209});
  EXPECT_THROW(decode_payload<GradientUploadMsg>(payload),
               util::SerializeError);
}

TEST(Messages, SparseUploadRejectsOutOfRangeIndex) {
  const auto payload = sparse_upload_with_indices({0, 7, 600, 1210});
  EXPECT_THROW(decode_payload<GradientUploadMsg>(payload),
               util::SerializeError);
}

chain::Digest patterned_digest(std::uint8_t fill) {
  chain::Digest d{};
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<std::uint8_t>(fill + i);
  }
  return d;
}

chain::SealedBlockHeader sample_sealed_header(std::uint64_t index) {
  chain::KeyRegistry registry(0xabcdu);
  for (chain::NodeId node : {8u, 9u, 10u}) registry.register_node(node);
  chain::SealedBlockHeader sealed;
  sealed.header.index = index;
  sealed.header.previous_hash = patterned_digest(0x10);
  sealed.header.merkle_root = patterned_digest(0x40);
  sealed.header.block_hash = sealed.header.compute_hash();
  sealed.executor_sig =
      registry.sign(8, sealed.header.canonical_payload());
  sealed.votes.push_back(
      registry.sign(9, sealed.header.canonical_payload()));
  sealed.votes.push_back(
      registry.sign(10, sealed.header.canonical_payload()));
  return sealed;
}

TEST(Messages, BlockProposalRoundTrip) {
  const chain::SealedBlockHeader sealed = sample_sealed_header(5);
  BlockProposalMsg msg;
  msg.round = 5;
  msg.header = sealed.header;
  msg.executor_sig = sealed.executor_sig;
  msg.records = sample_assessment().records;
  ASSERT_EQ(msg.records.size(), 2u);
  const auto back = decode_payload<BlockProposalMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 5u);
  EXPECT_EQ(back.header, msg.header);
  EXPECT_EQ(back.executor_sig, msg.executor_sig);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].signature, msg.records[0].signature);
  EXPECT_EQ(back.records[1].digest(), msg.records[1].digest());
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, BlockProposalRecordCountGuardRejectsHugeClaims) {
  BlockProposalMsg msg;
  msg.round = 1;
  msg.header.index = 1;
  auto payload = encode_payload(msg);
  // The record count is the trailing u64 (the empty-records encoding).
  for (std::size_t k = 1; k <= 6; ++k) payload[payload.size() - k] = 0xff;
  EXPECT_THROW(decode_payload<BlockProposalMsg>(payload),
               util::SerializeError);
}

TEST(Messages, BlockVoteRoundTrip) {
  const chain::SealedBlockHeader sealed = sample_sealed_header(3);
  BlockVoteMsg msg;
  msg.round = 3;
  msg.block_index = 3;
  msg.block_hash = sealed.header.block_hash;
  msg.vote = sealed.votes[0];
  const auto back = decode_payload<BlockVoteMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 3u);
  EXPECT_EQ(back.block_index, 3u);
  EXPECT_EQ(back.block_hash, msg.block_hash);
  EXPECT_EQ(back.vote, msg.vote);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, AuditQueryRoundTrip) {
  const AuditQueryMsg msg{
      7, 4, 99, static_cast<std::uint8_t>(chain::RecordKind::kReputation),
      3};
  const auto back = decode_payload<AuditQueryMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 7u);
  EXPECT_EQ(back.worker, 4u);
  EXPECT_EQ(back.token, 99u);
  EXPECT_EQ(back.kind,
            static_cast<std::uint8_t>(chain::RecordKind::kReputation));
  EXPECT_EQ(back.last_verified_index, 3u);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, AuditQueryRejectsUnknownRecordKind) {
  util::ByteWriter w;
  w.write_u64(7);
  w.write_u32(4);
  w.write_u64(99);
  w.write_u8(200);  // not a chain::RecordKind
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<AuditQueryMsg>(payload), util::SerializeError);
}

AuditProofMsg sample_audit_proof() {
  AuditProofMsg msg;
  msg.round = 4;
  msg.worker = 0;
  msg.token = 4;
  msg.bundle.found = true;
  msg.bundle.record = sample_assessment().records.at(0);
  msg.bundle.block_index = 1;
  msg.bundle.record_index = 0;
  msg.bundle.proof.push_back({patterned_digest(0x60), true});
  msg.bundle.proof.push_back({patterned_digest(0x70), false});
  msg.bundle.headers.push_back(sample_sealed_header(0));
  msg.bundle.headers.push_back(sample_sealed_header(1));
  return msg;
}

TEST(Messages, AuditProofRoundTrip) {
  const AuditProofMsg msg = sample_audit_proof();
  const auto back = decode_payload<AuditProofMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 4u);
  EXPECT_EQ(back.worker, 0u);
  EXPECT_EQ(back.token, 4u);
  const chain::AuditProofBundle& sent = msg.bundle;
  const chain::AuditProofBundle& got = back.bundle;
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.record.digest(), sent.record.digest());
  EXPECT_EQ(got.block_index, 1u);
  EXPECT_EQ(got.record_index, 0u);
  ASSERT_EQ(got.proof.size(), 2u);
  EXPECT_EQ(got.proof[0].sibling, sent.proof[0].sibling);
  EXPECT_EQ(got.proof[0].sibling_on_left, true);
  EXPECT_EQ(got.proof[1].sibling_on_left, false);
  ASSERT_EQ(got.headers.size(), 2u);
  EXPECT_EQ(got.headers[1].header, sent.headers[1].header);
  EXPECT_EQ(got.headers[1].executor_sig, sent.headers[1].executor_sig);
  EXPECT_EQ(got.headers[1].votes, sent.headers[1].votes);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, AuditProofNotFoundIsMinimal) {
  // found == 0 carries no record, proof, or headers at all — the
  // negative answer cannot smuggle unverified bytes.
  AuditProofMsg msg;
  msg.round = 2;
  msg.worker = 6;
  msg.token = 11;
  const auto payload = encode_payload(msg);
  EXPECT_EQ(payload.size(), 8u + 4u + 8u + 1u);
  const auto back = decode_payload<AuditProofMsg>(payload);
  EXPECT_FALSE(back.bundle.found);
  EXPECT_TRUE(back.bundle.proof.empty());
  EXPECT_TRUE(back.bundle.headers.empty());
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, AuditProofRejectsBlockIndexBeyondHeaders) {
  AuditProofMsg msg = sample_audit_proof();
  msg.bundle.block_index = 2;  // two headers: valid indices are 0..1
  EXPECT_THROW(decode_payload<AuditProofMsg>(encode_payload(msg)),
               util::SerializeError);
}

TEST(Messages, LedgerMessageCorruptionNeverCrashes) {
  // Random byte flips over the two structurally rich ledger payloads must
  // land in SerializeError or a still-well-formed decode — never UB or a
  // huge allocation (the sanitizer lanes give this its teeth).
  util::Rng rng(11);
  const auto proof_payload = encode_payload(sample_audit_proof());
  BlockProposalMsg proposal;
  proposal.round = 5;
  proposal.header.index = 5;
  proposal.executor_sig = sample_sealed_header(5).executor_sig;
  proposal.records = sample_assessment().records;
  const auto proposal_payload = encode_payload(proposal);
  for (int trial = 0; trial < 400; ++trial) {
    auto bytes = trial % 2 == 0 ? proof_payload : proposal_payload;
    const int flips = 1 + static_cast<int>(rng.uniform(0.0, 8.0));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(bytes.size())));
      bytes[pos] = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
    }
    try {
      if (trial % 2 == 0) {
        (void)decode_payload<AuditProofMsg>(bytes);
      } else {
        (void)decode_payload<BlockProposalMsg>(bytes);
      }
    } catch (const util::SerializeError&) {
    }
  }
}

TEST(Messages, SparseUploadRejectsHugeEntryCountClaims) {
  // Entry count must be guarded against remaining()/8 before allocation.
  GradientUploadMsg msg = sample_sparse_upload();
  util::ByteWriter w;
  w.write_u64(msg.round);
  w.write_u32(msg.worker);
  w.write_u64(msg.samples);
  w.write_u8(msg.ground_truth_attack);
  w.write_u8(msg.codec);
  w.write_u64(msg.sparse.dense_size);
  w.write_u64(0xFFFFFFFFFFFFull);  // entry count claim, no data
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<GradientUploadMsg>(payload),
               util::SerializeError);
}

TEST(Messages, ViewChangeRoundTrip) {
  chain::KeyRegistry registry(0xabcdu);
  registry.register_node(9);
  ViewChangeMsg msg;
  msg.round = 3;
  msg.view = 2;
  msg.proposer_index = 1;
  msg.dead_index = 0;
  msg.committed_count = 3;
  msg.head = patterned_digest(0x20);
  msg.sig = registry.sign(9, msg.canonical_payload());
  const auto back = decode_payload<ViewChangeMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 3u);
  EXPECT_EQ(back.view, 2u);
  EXPECT_EQ(back.proposer_index, 1u);
  EXPECT_EQ(back.dead_index, 0u);
  EXPECT_EQ(back.committed_count, 3u);
  EXPECT_EQ(back.head, msg.head);
  EXPECT_EQ(back.sig, msg.sig);
  // The signature must survive the wire: the voter verifies the decoded
  // canonical payload, not the encoder's.
  EXPECT_TRUE(registry.verify(back.sig, back.canonical_payload()));
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, ViewChangeVoteRoundTrip) {
  chain::KeyRegistry registry(0xabcdu);
  registry.register_node(10);
  ViewChangeVoteMsg msg;
  msg.round = 3;
  msg.view = 2;
  msg.proposer_index = 1;
  msg.voter_index = 2;
  msg.granted = 1;
  msg.committed_count = 3;
  msg.head = patterned_digest(0x30);
  msg.sig = registry.sign(10, msg.canonical_payload());
  const auto back = decode_payload<ViewChangeVoteMsg>(encode_payload(msg));
  EXPECT_EQ(back.view, 2u);
  EXPECT_EQ(back.proposer_index, 1u);
  EXPECT_EQ(back.voter_index, 2u);
  EXPECT_EQ(back.granted, 1u);
  EXPECT_EQ(back.committed_count, 3u);
  EXPECT_EQ(back.head, msg.head);
  EXPECT_TRUE(registry.verify(back.sig, back.canonical_payload()));
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, ChainSyncRequestRoundTrip) {
  const ChainSyncRequestMsg msg{5, 2, 3};
  const auto back = decode_payload<ChainSyncRequestMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 5u);
  EXPECT_EQ(back.server_index, 2u);
  EXPECT_EQ(back.from_block, 3u);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

ChainSyncResponseMsg sample_chain_sync_response() {
  ChainSyncResponseMsg msg;
  msg.round = 5;
  msg.from_block = 3;
  msg.ok = 1;
  for (std::uint64_t b = 3; b < 5; ++b) {
    SyncedBlock block;
    block.sealed = sample_sealed_header(b);
    block.records = sample_assessment().records;
    msg.blocks.push_back(std::move(block));
  }
  msg.theta_round = 5;
  msg.theta = {0xde, 0xad, 0xbe, 0xef, 0x01};
  return msg;
}

TEST(Messages, ChainSyncResponseRoundTrip) {
  const ChainSyncResponseMsg msg = sample_chain_sync_response();
  const auto back = decode_payload<ChainSyncResponseMsg>(encode_payload(msg));
  EXPECT_EQ(back.round, 5u);
  EXPECT_EQ(back.from_block, 3u);
  EXPECT_EQ(back.ok, 1u);
  ASSERT_EQ(back.blocks.size(), 2u);
  EXPECT_EQ(back.blocks[0].sealed.header, msg.blocks[0].sealed.header);
  EXPECT_EQ(back.blocks[0].sealed.executor_sig,
            msg.blocks[0].sealed.executor_sig);
  EXPECT_EQ(back.blocks[0].sealed.votes, msg.blocks[0].sealed.votes);
  ASSERT_EQ(back.blocks[1].records.size(), msg.blocks[1].records.size());
  EXPECT_EQ(back.blocks[1].records[0].digest(),
            msg.blocks[1].records[0].digest());
  EXPECT_EQ(back.theta_round, 5u);
  EXPECT_EQ(back.theta, msg.theta);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, ChainSyncResponseRefusalIsMinimal) {
  // ok == 0 carries no chain material at all — a refusing server cannot
  // smuggle unverified blocks or a bogus checkpoint.
  ChainSyncResponseMsg msg;
  msg.round = 9;
  msg.from_block = 2;
  msg.ok = 0;
  const auto payload = encode_payload(msg);
  EXPECT_EQ(payload.size(), 8u + 8u + 1u);
  const auto back = decode_payload<ChainSyncResponseMsg>(payload);
  EXPECT_EQ(back.ok, 0u);
  EXPECT_TRUE(back.blocks.empty());
  EXPECT_TRUE(back.theta.empty());
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

TEST(Messages, ChainSyncResponseRejectsHugeCountClaims) {
  // Block / record / checkpoint counts must all be guarded against
  // remaining() before any allocation sized by them.
  util::ByteWriter w;
  w.write_u64(5);   // round
  w.write_u64(0);   // from_block
  w.write_u8(1);    // ok
  w.write_u64(0xFFFFFFFFFFFFull);  // block count claim, no data
  const auto payload = w.take();
  EXPECT_THROW(decode_payload<ChainSyncResponseMsg>(payload),
               util::SerializeError);
}

TEST(Messages, ChainSyncResponseCorruptionNeverCrashes) {
  // Same property the other ledger payloads pin: random byte flips land
  // in SerializeError or a well-formed decode, never UB or a huge
  // allocation.
  util::Rng rng(17);
  const auto payload = encode_payload(sample_chain_sync_response());
  for (int trial = 0; trial < 400; ++trial) {
    auto bytes = payload;
    const int flips = 1 + static_cast<int>(rng.uniform(0.0, 8.0));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(bytes.size())));
      bytes[pos] = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
    }
    try {
      (void)decode_payload<ChainSyncResponseMsg>(bytes);
    } catch (const util::SerializeError&) {
    }
  }
}

TEST(Messages, AuditProofCachedBundleCarriesHeadersFrom) {
  // A cached proof ships only the header suffix; headers_from records the
  // elision so the worker can splice its verified prefix back in.
  AuditProofMsg msg = sample_audit_proof();
  msg.bundle.headers_from = 4;
  const auto back = decode_payload<AuditProofMsg>(encode_payload(msg));
  EXPECT_EQ(back.bundle.headers_from, 4u);
  expect_all_truncations_throw(msg);
  expect_rejects_trailing_bytes(msg);
}

// --- Canonical instances: one per message type and payload variant ------
//
// Every field carries a non-default value where the type allows it, so a
// reordered or resized field changes the bytes.

std::vector<JoinMsg> canonical(std::type_identity<JoinMsg>) {
  return {{17, NodeRole::kServer, fl::kAllCodecs, kFeatureTrace, 123456789}};
}

std::vector<JoinAckMsg> canonical(std::type_identity<JoinAckMsg>) {
  JoinAckMsg msg{3, 8, 2, 1210, 25};
  msg.upload_codec = static_cast<std::uint8_t>(fl::Codec::kTopK);
  msg.broadcast_codec = static_cast<std::uint8_t>(fl::Codec::kDelta);
  msg.keep_fraction = 0.1;
  msg.features = kFeatureTrace;
  msg.clock_us = 42424242;
  return {msg};
}

std::vector<LeaveMsg> canonical(std::type_identity<LeaveMsg>) {
  return {{9, "training complete"}};
}

std::vector<HeartbeatMsg> canonical(std::type_identity<HeartbeatMsg>) {
  return {{4, 0xdeadbeefcafeull, 1}};
}

std::vector<ModelBroadcastMsg> canonical(
    std::type_identity<ModelBroadcastMsg>) {
  ModelBroadcastMsg dense;
  dense.round = 12;
  for (std::size_t i = 0; i < 64; ++i) {
    dense.checkpoint.push_back(static_cast<std::uint8_t>(i * 37 + 5));
  }
  ModelBroadcastMsg delta;
  delta.round = 9;
  delta.codec = static_cast<std::uint8_t>(fl::Codec::kDelta);
  delta.base_round = 8;
  delta.delta.dense_size = 100;
  delta.delta.indices = {2, 40, 99};
  delta.delta.values = {1.5f, -0.25f, 3.0f};
  return {dense, delta};
}

std::vector<GradientUploadMsg> canonical(
    std::type_identity<GradientUploadMsg>) {
  GradientUploadMsg dense;
  dense.round = 3;
  dense.worker = 5;
  dense.samples = 120;
  dense.ground_truth_attack = 1;
  for (int i = 0; i < 16; ++i) {
    dense.gradient.push_back(0.25f * static_cast<float>(i) - 1.5f);
  }
  return {dense, sample_sparse_upload()};
}

std::vector<SliceAggregateMsg> canonical(
    std::type_identity<SliceAggregateMsg>) {
  SliceAggregateMsg msg;
  msg.round = 7;
  msg.server_index = 1;
  msg.offset = 605;
  msg.values = {1.0f, -2.5f, 0.0f, 3.25f};
  return {msg};
}

std::vector<AssessmentResultMsg> canonical(
    std::type_identity<AssessmentResultMsg>) {
  return {sample_assessment()};
}

std::vector<RoundSummaryMsg> canonical(std::type_identity<RoundSummaryMsg>) {
  RoundSummaryMsg msg;
  msg.round = 12;
  msg.degraded = 1;
  msg.next_executor = 2;
  msg.counted = {0, 2, 3, 7};
  return {msg};
}

std::vector<BlockProposalMsg> canonical(
    std::type_identity<BlockProposalMsg>) {
  const chain::SealedBlockHeader sealed = sample_sealed_header(5);
  BlockProposalMsg msg;
  msg.round = 5;
  msg.header = sealed.header;
  msg.executor_sig = sealed.executor_sig;
  msg.records = sample_assessment().records;
  return {msg};
}

std::vector<BlockVoteMsg> canonical(std::type_identity<BlockVoteMsg>) {
  const chain::SealedBlockHeader sealed = sample_sealed_header(3);
  BlockVoteMsg msg;
  msg.round = 3;
  msg.block_index = 3;
  msg.block_hash = sealed.header.block_hash;
  msg.vote = sealed.votes[0];
  return {msg};
}

std::vector<AuditQueryMsg> canonical(std::type_identity<AuditQueryMsg>) {
  return {{7, 4, 99,
           static_cast<std::uint8_t>(chain::RecordKind::kReputation), 3}};
}

std::vector<AuditProofMsg> canonical(std::type_identity<AuditProofMsg>) {
  AuditProofMsg missing;
  missing.round = 2;
  missing.worker = 6;
  missing.token = 11;
  return {sample_audit_proof(), missing};
}

std::vector<ViewChangeMsg> canonical(std::type_identity<ViewChangeMsg>) {
  chain::KeyRegistry registry(0xabcdu);
  registry.register_node(9);
  ViewChangeMsg msg;
  msg.round = 3;
  msg.view = 2;
  msg.proposer_index = 1;
  msg.dead_index = 0;
  msg.committed_count = 3;
  msg.head = patterned_digest(0x20);
  msg.sig = registry.sign(9, msg.canonical_payload());
  return {msg};
}

std::vector<ViewChangeVoteMsg> canonical(
    std::type_identity<ViewChangeVoteMsg>) {
  chain::KeyRegistry registry(0xabcdu);
  registry.register_node(10);
  ViewChangeVoteMsg msg;
  msg.round = 3;
  msg.view = 2;
  msg.proposer_index = 1;
  msg.voter_index = 2;
  msg.granted = 1;
  msg.committed_count = 3;
  msg.head = patterned_digest(0x30);
  msg.sig = registry.sign(10, msg.canonical_payload());
  return {msg};
}

std::vector<ChainSyncRequestMsg> canonical(
    std::type_identity<ChainSyncRequestMsg>) {
  return {{5, 2, 3}};
}

std::vector<ChainSyncResponseMsg> canonical(
    std::type_identity<ChainSyncResponseMsg>) {
  ChainSyncResponseMsg refused;
  refused.round = 9;
  refused.from_block = 2;
  return {sample_chain_sync_response(), refused};
}

/// Every canonical payload, in WireMessages order; each one must decode
/// and re-encode to the same bytes.
std::vector<std::vector<std::uint8_t>> canonical_payloads() {
  std::vector<std::vector<std::uint8_t>> out;
  WireMessages::for_each([&out]<typename Msg>(std::type_identity<Msg> type) {
    for (const Msg& msg : canonical(type)) {
      const auto bytes = encode_payload(msg);
      EXPECT_EQ(encode_payload(decode_payload<Msg>(bytes)), bytes);
      out.push_back(bytes);
    }
  });
  return out;
}

TEST(Messages, CanonicalPayloadsMatchGoldenHashes) {
  // SHA-256 of the 21 canonical payloads (every type and payload variant,
  // in tag order), recorded before the codec became one field list per
  // message: a change to any wire byte fails here.
  const std::pair<const char*, const char*> kGolden[] = {
      {"join",
       "b880a3458c036669e03e47d4000c712b94f8013a03839a8d121a970db4237f43"},
      {"join_ack",
       "bc6badd4e3b4313b6856d73c61725910f74160af12a5af1c45368a74692e35d2"},
      {"leave",
       "322e832c69aad5e0e60c8b18773b7d32a74a47fb8ce7bff4ffa9e8a87af406b1"},
      {"heartbeat",
       "49f72c51584bac13c6103d2d948bc4d9354b3c6af9f5adf28474e771281917c7"},
      {"model_broadcast dense",
       "dae6587ed37e309a70ece0ff347b14f42c51a6283a1225abb2240919a64729d3"},
      {"model_broadcast delta",
       "467d4a0e4bc4ed975804d07e4eec601052e8be4b935ba77356ed72567110f5eb"},
      {"gradient_upload dense",
       "5a6e4da2eea591fc34ce01cc6b5fe47e50cf1f465448236cccc4a2e9048d8b7e"},
      {"gradient_upload top-k",
       "b1dc1801f0aaca56eae78224dfc2198b2d48b3c94ed03dcfdf1de9530812e091"},
      {"slice_aggregate",
       "51d01cc06aab53e15ee0b429c056e95ba313ad6567369ec69003bd487d29ce17"},
      {"assessment_result",
       "8c6837ad23723f80955f45043c17f8d7fd94b4016b0701fe6b8e3b19f8191000"},
      {"round_summary",
       "7ae5dc979fbc34375034b18cbbad4577c88a8b2d2b6a931db7af1b6d349c895c"},
      {"block_proposal",
       "14bae073dd84fbfeb478864480bd3637ba4de4be16f86c6486f526268a5fbc32"},
      {"block_vote",
       "55cf9e8e201df1a0cae90f2afd328a3abf318fd6246b1d745bbf4cb3e5d8ba91"},
      {"audit_query",
       "6e3028f034e7c0aa60fb5e50f14ca86cb472efa5cbea2421d22028680f307fee"},
      {"audit_proof found",
       "9f88733eb5e20981d57cc68269601d018c8a28f23b2d7623a582a8c0545714a2"},
      {"audit_proof missing",
       "a7c7093e65dbbd9fd897df65d7bb36e59d1bd168d1d9e08d7a85190aa747c654"},
      {"view_change",
       "a78708e700ee451c82c88ee4757c2a736d8a5d68832afb164d142620b01c30c7"},
      {"view_change_vote",
       "796236b7190d10042c3556b15c344831d615bc03804dd433bc3b88c3602a6cd7"},
      {"chain_sync_request",
       "4afba3e81978bde1b347be80d3dccbecef95d0c8c7ad515249bfcec07f76a67d"},
      {"chain_sync_response ok",
       "9107a689e050375302babda24ced7c966f8a926a7b5bc34d987579153b694dea"},
      {"chain_sync_response refused",
       "e0980d095e2fa557ba773510d18e2cefb23c28e79bc798d8590026915e0774f1"},
  };
  const auto payloads = canonical_payloads();
  ASSERT_EQ(payloads.size(), std::size(kGolden));
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(chain::to_hex(chain::sha256(payloads[i])), kGolden[i].second)
        << "canonical payload " << i << " (" << kGolden[i].first << ")";
  }
}

/// Every canonical payload framed under its own tag from node 3, in
/// WireMessages order; `trace` == nullptr gives the untraced layout.
std::vector<std::vector<std::uint8_t>> canonical_frames(
    const obs::TraceContext* trace) {
  std::vector<std::vector<std::uint8_t>> out;
  WireMessages::for_each([&]<typename Msg>(std::type_identity<Msg> type) {
    for (const Msg& msg : canonical(type)) {
      out.push_back(encode_frame(static_cast<std::uint8_t>(Msg::kType), 3,
                                 encode_payload(msg), trace));
    }
  });
  return out;
}

TEST(Messages, CanonicalFramesMatchGoldenHashes) {
  // SHA-256 of encode_frame over the 21 canonical payloads, untraced and
  // with one fixed trace context (the extension is CRC-covered), recorded
  // while crc32 still took one table lookup per byte: a change to any
  // header, extension or checksum byte fails here.
  struct Golden {
    const char* name;
    const char* untraced;
    const char* traced;
  };
  const Golden kGolden[] = {
      {"join",
       "51d012be713617667158f8658daa2beecd97981a69fb44edbece4286e10aef92",
       "97fb6fd9fc4691353aa56f3f1117ba402e5a00f23fdee5c1c4b67c4f03598092"},
      {"join_ack",
       "84080a21fc76cd302abc22fdc0521bde60e571082fb43f6f4d91d634258c6a1b",
       "1d56a509965ffcea91c00574166ffb85884584f5a545452082d19f512e5db2a4"},
      {"leave",
       "4d5dc26030cb93b98800c03849aa6c7bc214310cec0fefb3315b30edd475e606",
       "540fc5a885fde1703e0d1303aa57c776bbb40d91e99c06ab97ef424cd4aacec8"},
      {"heartbeat",
       "c737dbfea58c2e410e37a7ad8384efa4870601271f3691826aba85227444007d",
       "dab5252c17c9f64ddd0b0e7e73f7066eafa2ba67d8d17bbaecab188c35517f65"},
      {"model_broadcast dense",
       "2762fca96de0aa910a4a6fc58baf64c741648ea6eb6739462f3f6d5140dfa7f5",
       "7901e867c7e7418e6fc51506c975feef325b0482a54c8d0510dc0af4da767881"},
      {"model_broadcast delta",
       "5094cd78690b4ee865be9f969384548236811ee74d91b9f3d79bb6a6d0a76b30",
       "155b8acb7ab39b8b27c36528c04db547418925d8bb2682e27902e7c781e31df2"},
      {"gradient_upload dense",
       "c0ef16233ec23bbdd7ec5fcd83a5d5c648d3d8efce93419ece95415987aae39f",
       "fb01f72117050fbbfc636e5e0e7e749ec84580f84911b188f48788fdb4979cf7"},
      {"gradient_upload top-k",
       "c7030d41034399c1a69ac21a214a65278e2b75b28d814aa591d233fb00a27755",
       "f2dd3e8582bafd97e7a96e3b5b1b90635a2c6d650aacf4e345ea358516afd967"},
      {"slice_aggregate",
       "9c970625cd13cc25b25e4078c685988ee551dc0d2346b78cf2fc53ef60b99d07",
       "f5e73256416b6742bab98c92309c4c287af257ab384faf7724b7a2cdf5b2e2a5"},
      {"assessment_result",
       "5c49f5dfcd3132b40353d05299e42ef2ffaeb0a83da2177967c54168f3aed50b",
       "965a6b0e30c1063a9667b6b7fe43be7f5932ec96e6ee0e0a76ae37157ec0f57f"},
      {"round_summary",
       "eff4f3a4fcb630e6926964fc3d4e312a5c1fa737e2cddf2a45f430def9750bb5",
       "b8e1cbb6a899b465b59c9d8ffa5d271d9e78dad24851a949cc5eaadc6f1773e1"},
      {"block_proposal",
       "5922f4debef5cc42f8aaaeee575ae0da968ea0b236047292cf38c4bbcd66bef9",
       "72e1bdea680f6f48a9cce5e87ca9628076aa1bb7704fb5edde4c1adeda1f3ae9"},
      {"block_vote",
       "a7eec0e8500db2aa80ebce2f9b36b31ba5867507584d8c764f79ceeed2d9049c",
       "ea92847079dc258c06dd7bcef4ce6caa1c88efdf73f671cb1ff6fa3273b19235"},
      {"audit_query",
       "e0049bd2cc472744a814d06a31076219e0920efaa9224aee150cc6c89165af57",
       "c29a297926c6e7eff0746b3ae79606754b96226c024b9220dee48ecadc11bb05"},
      {"audit_proof found",
       "94f8b588c06f4227eba6f816dd7adcd39e5d1bb18c7a800a3f1bae4e4f8b4639",
       "a87252c10e5b3da9f6b2104ee65bc427f7d5575044cd2d93fef630a3ce8e0752"},
      {"audit_proof missing",
       "9239a9a9376026ef9bde9052a24f8efff285ef16f0caa2fe8fdd29036af97b66",
       "412d46b26301acbef254867d65dcdbf2942cbd18557abee942ff496986546334"},
      {"view_change",
       "af8357a4e50b4bffc866213bc8c9c1d7f2598d9ec2af2bc16225fe60f8adc671",
       "de8f153fbd9f044cc444de466177b4d09d31157b3f94cfa75ba2f2eafb16153d"},
      {"view_change_vote",
       "f6730714ba4175800d1b7c1e57e40497ad0251884e9aec2d935be02ae66147cf",
       "cec948c4b03fc2054598a63db9ab747b37858759bdbf99b9fc840b79bf4357ee"},
      {"chain_sync_request",
       "65cfeea8a21bbff8f6ab7544a398ab8677a70cc231a7dc110c543e5f0dc32844",
       "2063443db31a35294dd9aa413a4032507ec6433bac99960d5cc0e813ea2e0b6f"},
      {"chain_sync_response ok",
       "dfc275aba6fca32cf89d3fe3545a7ae2876297cf3d1feecc6f8c0c48f3334655",
       "960053e3faa4499051b77442db8a971a8f47eb224492b8272e1b6986292986d7"},
      {"chain_sync_response refused",
       "eb87bcb305fdc10716ddfa604c311a4b5e122a4f0edee1079a9d543d7b22f2e5",
       "fcfc4df1e8b2a348822f1ddfeb6131d30fdf5a883bd4892de502786d2486f38a"},
  };
  const obs::TraceContext trace{0x0123456789ABCDEFull, (7ull << 40) | 42,
                                (7ull << 40) | 1};
  const auto untraced = canonical_frames(nullptr);
  const auto traced = canonical_frames(&trace);
  ASSERT_EQ(untraced.size(), std::size(kGolden));
  ASSERT_EQ(traced.size(), std::size(kGolden));
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_EQ(chain::to_hex(chain::sha256(untraced[i])), kGolden[i].untraced)
        << "untraced frame " << i << " (" << kGolden[i].name << ")";
    EXPECT_EQ(chain::to_hex(chain::sha256(traced[i])), kGolden[i].traced)
        << "traced frame " << i << " (" << kGolden[i].name << ")";
  }
}

// --- Codec properties of every listed message ------------------------------

template <typename List>
struct GtestTypes;
template <typename... Msgs>
struct GtestTypes<MessageList<Msgs...>> {
  using type = ::testing::Types<Msgs...>;
};

struct MessageTypeNames {
  template <typename Msg>
  static std::string GetName(int) {
    return message_type_name(Msg::kType);
  }
};

template <typename Msg>
class WireCodec : public ::testing::Test {
 protected:
  static std::vector<Msg> instances() {
    return canonical(std::type_identity<Msg>{});
  }
};
TYPED_TEST_SUITE(WireCodec, GtestTypes<WireMessages>::type, MessageTypeNames);

TYPED_TEST(WireCodec, EveryTruncationThrows) {
  for (const TypeParam& msg : this->instances()) {
    expect_all_truncations_throw(msg);
  }
}

TYPED_TEST(WireCodec, TrailingByteIsRejected) {
  for (const TypeParam& msg : this->instances()) {
    expect_rejects_trailing_bytes(msg);
  }
}

TYPED_TEST(WireCodec, RandomByteFlipsFailCleanlyOrDecode) {
  // A flipped payload must end in SerializeError or a well-formed decode:
  // any other exception fails the test, and the sanitizer lanes catch UB
  // or an allocation sized by a corrupted count.
  util::Rng rng(0xf11b + static_cast<std::uint64_t>(TypeParam::kType));
  for (const TypeParam& msg : this->instances()) {
    const auto payload = encode_payload(msg);
    for (int trial = 0; trial < 200; ++trial) {
      auto bytes = payload;
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(bytes.size())));
      bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(0.0, 255.0));
      try {
        (void)decode_payload<TypeParam>(bytes);
      } catch (const util::SerializeError&) {
      }
    }
  }
}

TYPED_TEST(WireCodec, RoundTaggedPayloadLeadsWithRound) {
  // FaultyTransport windows faults by the round it reads from the first 8
  // payload bytes of every message leads_with_round() names.
  EXPECT_EQ(leads_with_round(TypeParam::kType), RoundTagged<TypeParam>);
  if constexpr (RoundTagged<TypeParam>) {
    for (const TypeParam& msg : this->instances()) {
      const auto payload = encode_payload(msg);
      util::ByteReader reader(payload);
      EXPECT_EQ(reader.read_u64(), msg.round);
    }
  }
}

TEST(Messages, DataPlaneIsEveryMessageButJoinLeaveAndHeartbeat) {
  for (std::size_t tag = 0; tag <= kMessageTypeCount + 1; ++tag) {
    const auto type = static_cast<MessageType>(tag);
    const bool data_plane =
        tag >= 1 && tag <= kMessageTypeCount && type != MessageType::kJoin &&
        type != MessageType::kJoinAck && type != MessageType::kLeave &&
        type != MessageType::kHeartbeat;
    EXPECT_EQ(leads_with_round(type), data_plane) << "tag " << tag;
  }
}

}  // namespace
}  // namespace fifl::net
