#include "net/messages.hpp"

#include <sstream>

namespace fifl::net {

// No default case, and -Wswitch is an error here in every build: adding a
// MessageType enumerator without naming it fails to compile.
#pragma GCC diagnostic push
#pragma GCC diagnostic error "-Wswitch"
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
#pragma GCC diagnostic pop

bool leads_with_round(MessageType type) noexcept {
  bool tagged = false;
  WireMessages::for_each([&]<typename Msg>(std::type_identity<Msg>) {
    if (Msg::kType == type) tagged = RoundTagged<Msg>;
  });
  return tagged;
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

std::string ViewChangeMsg::canonical_payload() const {
  std::ostringstream os;
  os << "viewchange|" << round << '|' << view << '|' << proposer_index << '|'
     << dead_index << '|' << committed_count << '|' << chain::to_hex(head);
  return os.str();
}

std::string ViewChangeVoteMsg::canonical_payload() const {
  std::ostringstream os;
  os << "viewchangevote|" << round << '|' << view << '|' << proposer_index
     << '|' << voter_index << '|' << static_cast<unsigned>(granted) << '|'
     << committed_count << '|' << chain::to_hex(head);
  return os.str();
}

}  // namespace fifl::net
