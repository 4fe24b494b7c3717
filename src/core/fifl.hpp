// FiflEngine: the full per-round FIFL pipeline of Fig. 2 wired together.
//
//   uploads ──► attack detection (Sec. 4.1) ──► reputation update (4.2)
//        └──► accepted-only aggregation (Eq. 2+7) ──► contribution (4.3)
//                                 └──► incentive  I_i = R_i·C_i/ΣC⁺ (4.4)
// with every intermediate value signed and sealed into the audit ledger
// and the server cluster re-selected by reputation each round (4.5).
//
// The engine is deliberately independent of fl::Simulator: it consumes a
// span of Uploads and returns the accept mask + aggregated gradient, so
// callers can drive it from the simulator, from tests with synthetic
// gradients, or from the market model.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "chain/ledger.hpp"
#include "core/audit.hpp"
#include "core/contribution.hpp"
#include "core/detection.hpp"
#include "core/fairness.hpp"
#include "core/incentive.hpp"
#include "core/reputation.hpp"
#include "fl/topology.hpp"
#include "obs/metrics.hpp"

namespace fifl::core {

struct FiflConfig {
  DetectionConfig detection;
  ReputationConfig reputation;
  ContributionConfig contribution;
  IncentiveConfig incentive;
  std::size_t servers = 2;  // M (1 = centralized, N = decentralized)
  bool reselect_servers = true;
  bool record_to_ledger = true;
  std::uint64_t key_seed = 0x51f7u;
};

struct RoundReport {
  std::uint64_t round = 0;
  std::vector<chain::NodeId> servers;  // cluster that served this round
  /// True when no benchmark could be assembled (e.g. every candidate
  /// upload was lost): detection was impossible, all events recorded as
  /// uncertain, nothing aggregated, nobody paid.
  bool degraded = false;
  DetectionResult detection;
  std::vector<double> reputations;     // R_i after this round's events
  fl::Gradient global_gradient;        // G̃ over accepted uploads
  ContributionResult contribution;
  std::vector<double> rewards;         // I_i (negative = punishment)
  double fairness = 0.0;               // C_s among positive contributors
  /// Wall-times of this round's pipeline phases (also recorded into the
  /// global metrics registry as "fifl.detect_ms" / "fifl.aggregate_ms" /
  /// "fifl.ledger_ms" histograms). aggregate_ms spans aggregation,
  /// contribution, and incentive — the post-detection arithmetic.
  double detect_ms = 0.0;
  double aggregate_ms = 0.0;
  double ledger_ms = 0.0;
};

class FiflEngine {
 public:
  FiflEngine(FiflConfig config, std::size_t workers, std::size_t gradient_size);

  std::size_t workers() const noexcept { return workers_; }
  const FiflConfig& config() const noexcept { return config_; }
  const fl::SlicePlan& plan() const noexcept { return plan_; }
  const std::vector<chain::NodeId>& server_members() const noexcept {
    return members_;
  }
  /// The task publisher's node id (workers_, one past the last worker).
  chain::NodeId publisher() const noexcept {
    return static_cast<chain::NodeId>(workers_);
  }

  /// Initial server selection from pre-training verification scores
  /// (Sec. 4.5). Without this call the cluster starts as workers 0..M-1.
  void initialize_servers(std::span<const double> verification_scores);

  /// Runs the full pipeline on one round of uploads (uploads.size() must
  /// equal workers()). Detection, contribution, aggregation and the ledger's
  /// record digests run as tasks on util::ThreadPool::global(), or serially
  /// when called from a pool task or inside a util::ThreadPool::InlineScope;
  /// the report and ledger bytes are the same either way (DESIGN.md
  /// "Assessment path").
  RoundReport process_round(std::span<const fl::Upload> uploads);

  /// Rejoin-by-replay: re-applies one committed block's records to rebuild
  /// the state a live replica would hold — reputation events, cumulative
  /// rewards, the sealed block itself (re-appended through the local
  /// KeyRegistry, so deterministic signatures make the block byte-identical
  /// to the original), and the next round's server re-selection. The block
  /// must be the engine's next round; recorded kReputation values are
  /// cross-checked against the replayed state and any divergence throws
  /// std::runtime_error (the sync peer served a forked history).
  void catch_up_block(std::span<const chain::AuditRecord> records);

  /// Rounds processed so far (== ledger block count when recording).
  std::uint64_t round() const noexcept { return round_; }

  ReputationModule& reputation() noexcept { return reputation_; }
  const ReputationModule& reputation() const noexcept { return reputation_; }
  const chain::Ledger& ledger() const noexcept { return ledger_; }
  const chain::KeyRegistry& registry() const noexcept { return registry_; }
  ServerSelector& selector() noexcept { return selector_; }
  const CumulativeLedger& cumulative() const noexcept { return cumulative_; }
  DetectionModule& detection() noexcept { return detection_; }

 private:
  /// Benchmark slice providers for this round: the cluster members, with
  /// any member whose upload is missing/dropped replaced by the
  /// highest-reputation arrived worker (keeps detection alive under
  /// channel loss).
  std::vector<chain::NodeId> effective_members(
      std::span<const fl::Upload> uploads) const;

  /// Records each worker's reputation event for its detection outcome,
  /// counts it, and copies R_i into the report (both process_round exits).
  void record_events(RoundReport& report);

  /// The one block commit of a live, degraded or replayed round: adds
  /// `rewards` to the cumulative totals, appends and seals `block` (when
  /// recording), re-selects the cluster unless the block is degraded (no
  /// kReputation rows), then advances the round. Returns the append + seal
  /// time, which only `timed` (process_round) commits record into
  /// fifl.ledger_ms.
  double commit_round(std::span<const chain::AuditRecord> block,
                      std::span<const double> rewards, bool timed);

  FiflConfig config_;
  std::size_t workers_;
  fl::SlicePlan plan_;
  std::vector<chain::NodeId> members_;
  DetectionModule detection_;
  ReputationModule reputation_;
  ContributionModule contribution_;
  IncentiveModule incentive_;
  ServerSelector selector_;
  chain::KeyRegistry registry_;
  chain::Ledger ledger_;
  CumulativeLedger cumulative_;
  std::uint64_t round_ = 0;
  // Metrics handles resolved once in the constructor.
  obs::Histogram* detect_hist_ = nullptr;
  obs::Histogram* aggregate_hist_ = nullptr;
  obs::Histogram* ledger_hist_ = nullptr;
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* accepted_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* uncertain_counter_ = nullptr;
  obs::Counter* degraded_counter_ = nullptr;
};

}  // namespace fifl::core
