#include "core/fifl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/scoped_timer.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"

namespace fifl::core {

namespace {
// Elements of G̃ per aggregation task: a 16 KB block stays in L1 while
// every accepted upload's matching segment streams through it.
constexpr std::size_t kAggregateBlock = 4096;
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

  // Degraded rounds seal detection-only blocks (value -1, no kReputation
  // rows) and skip re-selection, exactly like process_round's early return.
  bool has_reputation = false;
  std::vector<double> rewards(workers_, 0.0);
  for (const auto& rec : records) {
    switch (rec.kind) {
      case chain::RecordKind::kDetection: {
        const Event event = rec.value > 0.5    ? Event::kPositive
                            : rec.value < -0.5 ? Event::kUncertain
                                               : Event::kNegative;
        reputation_.record(rec.subject, event);
        break;
      }
      case chain::RecordKind::kReputation:
        has_reputation = true;
        break;
      case chain::RecordKind::kReward:
        if (rec.subject < workers_) rewards[rec.subject] = rec.value;
        break;
      default:
        break;
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
  cumulative_.add_round(rewards);

  for (const auto& rec : records) {
    ledger_.append(rec.kind, rec.round, rec.subject, rec.executor, rec.value);
  }
  ledger_.seal_block();

  if (has_reputation && config_.reselect_servers) {
    members_ = selector_.select_by_reputation(reputation_, workers_);
  }
  ++round_;
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
    uncertain_counter_->inc(n);
    report.detection.scores.assign(n, std::numeric_limits<double>::quiet_NaN());
    report.detection.accepted.assign(n, 0);
    report.detection.uncertain.assign(n, 1);
    report.detection.server_scores.assign(
        plan_.servers(), std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      reputation_.record(static_cast<chain::NodeId>(i), Event::kUncertain);
    }
    report.reputations = reputation_.all_reputations();
    report.reputations.resize(workers_);
    report.global_gradient = fl::Gradient(plan_.gradient_size());
    report.contribution.distances.assign(
        n, std::numeric_limits<double>::quiet_NaN());
    report.contribution.contributions.assign(n, 0.0);
    report.rewards.assign(n, 0.0);
    cumulative_.add_round(report.rewards);
    if (config_.record_to_ledger) {
      obs::ScopedTimer ledger_timer(*ledger_hist_);
      for (std::size_t i = 0; i < n; ++i) {
        ledger_.append(chain::RecordKind::kDetection, round_,
                       static_cast<chain::NodeId>(i), publisher(), -1.0);
      }
      ledger_.seal_block();
      report.ledger_ms = ledger_timer.stop();
    }
    ++round_;
    return report;
  }
  fl::ServerCluster cluster(bench_members, plan_);
  report.servers = bench_members;
  report.detection = detection_.run(uploads, cluster);
  report.detect_ms = detect_timer.stop();

  // --- 2. reputation events ----------------------------------------------
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    const auto id = static_cast<chain::NodeId>(i);
    if (report.detection.uncertain[i]) {
      uncertain_counter_->inc();
      reputation_.record(id, Event::kUncertain);
    } else {
      (report.detection.accepted[i] ? accepted_counter_ : rejected_counter_)
          ->inc();
      reputation_.record(id, report.detection.accepted[i] ? Event::kPositive
                                                          : Event::kNegative);
    }
  }
  report.reputations = reputation_.all_reputations();
  report.reputations.resize(workers_);

  // --- 3. aggregation over accepted uploads (Eq. 2 with r_i mask) --------
  obs::ScopedTimer aggregate_timer(*aggregate_hist_);
  report.global_gradient = fl::Gradient(plan_.gradient_size());
  double total_weight = 0.0;
  // order: worker upload index ascending (fixed engine-input order)
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    if (!uploads[i].arrived || !report.detection.accepted[i]) continue;
    total_weight += static_cast<double>(uploads[i].samples);
  }
  if (total_weight > 0.0) {
    const std::size_t width = plan_.gradient_size();
    // (weight, gradient) of each accepted upload, worker index ascending.
    std::vector<std::pair<float, const float*>> terms;
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      if (!uploads[i].arrived || !report.detection.accepted[i]) continue;
      if (uploads[i].gradient.size() != width) {
        throw std::invalid_argument("FiflEngine: upload gradient size mismatch");
      }
      terms.emplace_back(
          static_cast<float>(static_cast<double>(uploads[i].samples) / total_weight),
          uploads[i].gradient.data());
    }
    // One pool task per element block of G̃ applies every accepted upload
    // in ascending worker order. axpy is elementwise, so neither the block
    // size nor the pool size changes a byte.
    const tensor::kernels::KernelTable& kt = tensor::kernels::active();
    float* global = report.global_gradient.data();
    const auto aggregate_block = [&](std::size_t b) {
      const std::size_t lo = b * kAggregateBlock;
      const std::size_t len = std::min(kAggregateBlock, width - lo);
      for (const auto& [weight, gradient] : terms) {
        kt.axpy(global + lo, weight, gradient + lo, len);
      }
    };
    util::parallel_for(0, (width + kAggregateBlock - 1) / kAggregateBlock,
                       aggregate_block, /*grain=*/1);
  }

  // --- 4. contribution (Eq. 13-14) ----------------------------------------
  report.contribution = contribution_.run(uploads, report.global_gradient);

  // --- 5. incentive (Eq. 15) ----------------------------------------------
  report.rewards =
      incentive_.rewards(report.reputations, report.contribution.contributions);
  cumulative_.add_round(report.rewards);
  report.fairness = fairness_among_contributors(
      report.contribution.contributions, report.rewards);
  report.aggregate_ms = aggregate_timer.stop();

  // --- 6. audit trail ------------------------------------------------------
  if (config_.record_to_ledger) {
    obs::ScopedTimer ledger_timer(*ledger_hist_);
    const chain::NodeId leader = bench_members.front();
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      const auto id = static_cast<chain::NodeId>(i);
      // Detection outcome: 1 accepted, 0 rejected, -1 uncertain.
      const double outcome = report.detection.uncertain[i]
                                 ? -1.0
                                 : static_cast<double>(report.detection.accepted[i]);
      ledger_.append(chain::RecordKind::kDetection, round_, id, leader, outcome);
      ledger_.append(chain::RecordKind::kReputation, round_, id, leader,
                     report.reputations[i]);
      ledger_.append(chain::RecordKind::kContribution, round_, id, leader,
                     report.contribution.contributions[i]);
      ledger_.append(chain::RecordKind::kReward, round_, id, publisher(),
                     report.rewards[i]);
    }
    ledger_.seal_block();
    report.ledger_ms = ledger_timer.stop();
  }

  // --- 7. reputation-based server re-selection for the next round --------
  if (config_.reselect_servers) {
    members_ = selector_.select_by_reputation(reputation_, workers_);
  }
  ++round_;
  return report;
}

}  // namespace fifl::core
