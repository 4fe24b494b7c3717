#include "core/fifl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "fl/simulator.hpp"
#include "obs/scoped_timer.hpp"
#include "util/logging.hpp"

namespace fifl::core {

namespace {
// A detection row's value: 1 accepted, 0 rejected, -1 uncertain.
double detection_outcome(const DetectionResult& detection, std::size_t i) {
  return detection.uncertain[i] ? -1.0
                                : static_cast<double>(detection.accepted[i]);
}

// The reputation event (Sec. 4.2) a detection outcome records — read the
// same way from a live round's result and from a replayed block's rows.
Event event_of(double outcome) {
  return outcome > 0.5    ? Event::kPositive
         : outcome < -0.5 ? Event::kUncertain
                          : Event::kNegative;
}

// One block row about worker `subject`, unsigned until the commit appends
// it.
chain::AuditRecord row(chain::RecordKind kind, std::uint64_t round,
                       std::size_t subject, chain::NodeId executor,
                       double value) {
  chain::AuditRecord rec;
  rec.kind = kind;
  rec.round = round;
  rec.subject = static_cast<chain::NodeId>(subject);
  rec.executor = executor;
  rec.value = value;
  return rec;
}
}  // namespace

FiflEngine::FiflEngine(FiflConfig config, std::size_t workers,
                       std::size_t gradient_size)
    : config_(config),
      workers_(workers),
      plan_(gradient_size, config.servers),
      detection_(config.detection),
      reputation_(config.reputation),
      contribution_(config.contribution),
      incentive_(config.incentive),
      selector_(config.servers),
      registry_(config.key_seed),
      ledger_(&registry_) {
  if (workers == 0) throw std::invalid_argument("FiflEngine: zero workers");
  if (config.servers > workers) {
    throw std::invalid_argument("FiflEngine: more servers than workers");
  }
  reputation_.resize(workers);
  for (std::size_t i = 0; i <= workers; ++i) {
    registry_.register_node(static_cast<chain::NodeId>(i));
  }
  members_.resize(config.servers);
  for (std::size_t j = 0; j < config.servers; ++j) {
    members_[j] = static_cast<chain::NodeId>(j);
  }

  auto& metrics = obs::MetricsRegistry::global();
  detect_hist_ = &metrics.histogram("fifl.detect_ms");
  aggregate_hist_ = &metrics.histogram("fifl.aggregate_ms");
  ledger_hist_ = &metrics.histogram("fifl.ledger_ms");
  rounds_counter_ = &metrics.counter("fifl.rounds");
  accepted_counter_ = &metrics.counter("fifl.uploads_accepted");
  rejected_counter_ = &metrics.counter("fifl.uploads_rejected");
  uncertain_counter_ = &metrics.counter("fifl.uploads_uncertain");
  degraded_counter_ = &metrics.counter("fifl.degraded_rounds");
}

void FiflEngine::initialize_servers(
    std::span<const double> verification_scores) {
  if (verification_scores.size() != workers_) {
    throw std::invalid_argument("initialize_servers: score count mismatch");
  }
  members_ = selector_.select_initial(verification_scores);
  if (config_.record_to_ledger) {
    for (chain::NodeId member : members_) {
      ledger_.append(chain::RecordKind::kServerSelection, round_, member,
                     publisher(), 1.0);
    }
  }
}

std::vector<chain::NodeId> FiflEngine::effective_members(
    std::span<const fl::Upload> uploads) const {
  auto arrived = [&uploads](chain::NodeId id) {
    for (const auto& u : uploads) {
      if (u.worker == id) return u.arrived;
    }
    return false;
  };
  std::vector<chain::NodeId> effective = members_;
  for (auto& member : effective) {
    if (arrived(member)) continue;
    // Substitute: highest-reputation arrived worker not already serving.
    chain::NodeId best = member;
    double best_rep = -std::numeric_limits<double>::infinity();
    for (const auto& u : uploads) {
      if (!u.arrived) continue;
      if (std::find(effective.begin(), effective.end(), u.worker) !=
          effective.end()) {
        continue;
      }
      const double rep = reputation_.reputation(u.worker);
      if (rep > best_rep) {
        best_rep = rep;
        best = u.worker;
      }
    }
    if (best == member) {
      throw std::runtime_error(
          "FiflEngine: no arrived upload available to serve as benchmark");
    }
    member = best;
  }
  return effective;
}

void FiflEngine::catch_up_block(std::span<const chain::AuditRecord> records) {
  if (records.empty()) {
    throw std::invalid_argument("catch_up_block: empty block");
  }
  if (!config_.record_to_ledger) {
    throw std::logic_error("catch_up_block: engine is not recording");
  }
  if (records.front().round != round_) {
    throw std::runtime_error(
        "catch_up_block: block is for round " +
        std::to_string(records.front().round) + ", engine expects round " +
        std::to_string(round_));
  }

  std::vector<double> rewards(workers_, 0.0);
  for (const auto& rec : records) {
    if (rec.kind == chain::RecordKind::kDetection) {
      reputation_.record(rec.subject, event_of(rec.value));
    } else if (rec.kind == chain::RecordKind::kReward && rec.subject < workers_) {
      rewards[rec.subject] = rec.value;
    }
  }
  for (const auto& rec : records) {
    if (rec.kind != chain::RecordKind::kReputation) continue;
    if (reputation_.reputation(rec.subject) != rec.value) {
      throw std::runtime_error(
          "catch_up_block: replayed reputation for worker " +
          std::to_string(rec.subject) +
          " diverges from the recorded value (forked history)");
    }
  }
  (void)commit_round(records, rewards, /*timed=*/false);
}

void FiflEngine::record_events(RoundReport& report) {
  for (std::size_t i = 0; i < workers_; ++i) {
    const Event event = event_of(detection_outcome(report.detection, i));
    (event == Event::kPositive   ? accepted_counter_
     : event == Event::kNegative ? rejected_counter_
                                 : uncertain_counter_)
        ->inc();
    reputation_.record(static_cast<chain::NodeId>(i), event);
  }
  report.reputations = reputation_.all_reputations();
  report.reputations.resize(workers_);
}

double FiflEngine::commit_round(std::span<const chain::AuditRecord> block,
                                std::span<const double> rewards, bool timed) {
  cumulative_.add_round(rewards);
  double ledger_ms = 0.0;
  if (config_.record_to_ledger) {
    std::optional<obs::ScopedTimer> ledger_timer;
    if (timed) ledger_timer.emplace(*ledger_hist_);
    for (const auto& rec : block) {
      ledger_.append(rec.kind, rec.round, rec.subject, rec.executor, rec.value);
    }
    ledger_.seal_block();
    if (ledger_timer) ledger_ms = ledger_timer->stop();
  }
  // A degraded block (detection rows only) keeps this round's cluster.
  const bool degraded = std::none_of(
      block.begin(), block.end(), [](const chain::AuditRecord& rec) {
        return rec.kind == chain::RecordKind::kReputation;
      });
  if (!degraded && config_.reselect_servers) {
    members_ = selector_.select_by_reputation(reputation_, workers_);
  }
  ++round_;
  return ledger_ms;
}

RoundReport FiflEngine::process_round(std::span<const fl::Upload> uploads) {
  if (uploads.size() != workers_) {
    throw std::invalid_argument("FiflEngine: expected one upload per worker");
  }
  RoundReport report;
  report.round = round_;
  rounds_counter_->inc();

  // --- 1. attack detection against the server benchmark slices -----------
  // (benchmark assembly counts as detection time: it is the cost of
  // being able to score at all).
  obs::ScopedTimer detect_timer(*detect_hist_);
  std::vector<chain::NodeId> bench_members;
  try {
    bench_members = effective_members(uploads);
  } catch (const std::runtime_error&) {
    // No usable benchmark this round (e.g. the channel dropped every
    // candidate): degrade gracefully — everything is an uncertain event,
    // nothing is aggregated or paid.
    report.detect_ms = detect_timer.stop();
    report.degraded = true;
    util::log_warn() << "fifl: no usable benchmark gradient this round, "
                        "degrading (all uploads marked uncertain)";
    degraded_counter_->inc();
    report.servers = members_;
    const std::size_t n = uploads.size();
    report.detection.scores.assign(n, std::numeric_limits<double>::quiet_NaN());
    report.detection.accepted.assign(n, 0);
    report.detection.uncertain.assign(n, 1);
    report.detection.server_scores.assign(
        plan_.servers(), std::vector<double>(n, 0.0));
    record_events(report);
    report.global_gradient = fl::Gradient(plan_.gradient_size());
    report.contribution.distances.assign(
        n, std::numeric_limits<double>::quiet_NaN());
    report.contribution.contributions.assign(n, 0.0);
    report.rewards.assign(n, 0.0);
    // Detection rows only, signed by the task publisher.
    std::vector<chain::AuditRecord> block;
    for (std::size_t i = 0; i < n; ++i) {
      block.push_back(row(chain::RecordKind::kDetection, round_, i,
                          publisher(), detection_outcome(report.detection, i)));
    }
    report.ledger_ms = commit_round(block, report.rewards, /*timed=*/true);
    return report;
  }
  fl::ServerCluster cluster(bench_members, plan_);
  report.servers = bench_members;
  report.detection = detection_.run(uploads, cluster);
  report.detect_ms = detect_timer.stop();

  // --- 2. reputation events ----------------------------------------------
  record_events(report);

  // --- 3. aggregation over accepted uploads (Eq. 2 with r_i mask) --------
  obs::ScopedTimer aggregate_timer(*aggregate_hist_);
  report.global_gradient = fl::aggregate(uploads, report.detection.accepted,
                                         plan_.gradient_size());

  // --- 4. contribution (Eq. 13-14) ----------------------------------------
  report.contribution = contribution_.run(uploads, report.global_gradient);

  // --- 5. incentive (Eq. 15) ----------------------------------------------
  report.rewards =
      incentive_.rewards(report.reputations, report.contribution.contributions);
  report.fairness = fairness_among_contributors(
      report.contribution.contributions, report.rewards);
  report.aggregate_ms = aggregate_timer.stop();

  // --- 6. audit trail, 7. re-selection for the next round ----------------
  const chain::NodeId leader = bench_members.front();
  std::vector<chain::AuditRecord> block;
  block.reserve(4 * uploads.size());
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    block.push_back(row(chain::RecordKind::kDetection, round_, i, leader,
                        detection_outcome(report.detection, i)));
    block.push_back(row(chain::RecordKind::kReputation, round_, i, leader,
                        report.reputations[i]));
    block.push_back(row(chain::RecordKind::kContribution, round_, i, leader,
                        report.contribution.contributions[i]));
    block.push_back(row(chain::RecordKind::kReward, round_, i, publisher(),
                        report.rewards[i]));
  }
  report.ledger_ms = commit_round(block, report.rewards, /*timed=*/true);
  return report;
}

}  // namespace fifl::core
