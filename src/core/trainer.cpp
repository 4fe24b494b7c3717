#include "core/trainer.hpp"

#include <stdexcept>

#include "core/round_common.hpp"
#include "util/logging.hpp"

namespace fifl::core {

FederatedTrainer::FederatedTrainer(fl::Simulator* simulator, FiflEngine* engine,
                                   TrainerConfig config)
    : simulator_(simulator), engine_(engine), config_(config),
      participation_rng_(config.participation_seed),
      trace_recorder_(&obs::RoundTraceRecorder::global()) {
  if (!simulator_) throw std::invalid_argument("FederatedTrainer: null simulator");
  if (config.participation <= 0.0 || config.participation > 1.0) {
    throw std::invalid_argument("FederatedTrainer: participation outside (0,1]");
  }
  if (engine_ && engine_->workers() != simulator_->worker_count()) {
    throw std::invalid_argument(
        "FederatedTrainer: engine/simulator worker count mismatch");
  }
}

RoundRecord FederatedTrainer::execute_round() {
  RoundRecord record;
  std::vector<fl::Upload> uploads;
  if (config_.participation >= 1.0) {
    uploads = simulator_->collect_uploads();
  } else {
    const auto mask =
        simulator_->sample_participants(config_.participation, participation_rng_);
    uploads = simulator_->collect_uploads(mask);
  }
  record.round = simulator_->round() - 1;
  const bool tracing = trace_recorder_ && trace_recorder_->enabled();
  const fl::SimPhaseTimes& sim_times = simulator_->last_phase_times();
  if (engine_) {
    const RoundReport report = engine_->process_round(uploads);
    simulator_->apply_gradient(report.global_gradient);
    summarize_report(report, uploads, record);
    if (tracing) {
      pending_trace_ = make_round_trace(record.round, report, uploads);
      pending_trace_.phases.local_train_ms = sim_times.local_train_ms;
      pending_trace_.phases.channel_ms = sim_times.channel_ms;
      pending_trace_.phases.detect_ms = report.detect_ms;
      pending_trace_.phases.aggregate_ms = report.aggregate_ms;
      pending_trace_.phases.ledger_ms = report.ledger_ms;
    }
    if (report_observer_) report_observer_(report, uploads);
  } else {
    simulator_->apply_round(uploads);
    for (const auto& upload : uploads) {
      if (upload.arrived) {
        ++record.accepted;
      } else {
        ++record.uncertain;
      }
    }
    if (tracing) {
      pending_trace_ = make_fedavg_round_trace(record.round, uploads);
      pending_trace_.phases.local_train_ms = sim_times.local_train_ms;
      pending_trace_.phases.channel_ms = sim_times.channel_ms;
    }
  }
  return record;
}

std::size_t FederatedTrainer::run(std::size_t rounds, const Observer& observer) {
  util::log_info() << "trainer: " << rounds << " rounds, "
                   << simulator_->worker_count() << " workers, "
                   << (engine_ ? "FIFL" : "FedAvg") << " aggregation";
  std::size_t executed = 0;
  for (; executed < rounds; ++executed) {
    RoundRecord record = execute_round();
    util::log_debug() << "round " << record.round << ": accepted "
                      << record.accepted << " rejected " << record.rejected
                      << " uncertain " << record.uncertain;
    const bool eval_point =
        config_.eval_every != 0 &&
        (executed + 1) % config_.eval_every == 0;
    if (eval_point || executed + 1 == rounds) {
      last_eval_ = simulator_->evaluate();
      record.evaluated = true;
      record.accuracy = last_eval_->accuracy;
      record.loss = last_eval_->loss;
    }
    if (trace_recorder_ && trace_recorder_->enabled()) {
      pending_trace_.evaluated = record.evaluated;
      pending_trace_.eval_loss = record.loss;
      pending_trace_.eval_accuracy = record.accuracy;
      trace_recorder_->record(pending_trace_);
    }
    history_.push_back(record);
    if (observer) observer(history_.back());
    if (config_.stop_on_crash && simulator_->model_crashed()) {
      util::log_warn() << "trainer: model crashed (non-finite parameters) "
                          "after round " << record.round << ", stopping";
      crashed_ = true;
      ++executed;
      break;
    }
    if (record.evaluated && config_.target_accuracy > 0.0 &&
        record.accuracy >= config_.target_accuracy) {
      ++executed;
      break;
    }
  }
  return executed;
}

fl::Evaluation FederatedTrainer::final_evaluation() {
  if (!last_eval_) last_eval_ = simulator_->evaluate();
  return *last_eval_;
}

util::Table FederatedTrainer::history_table() const {
  util::Table table({"round", "accuracy", "loss", "accepted", "rejected",
                     "uncertain", "fairness"});
  for (const auto& record : history_) {
    if (!record.evaluated) continue;
    table.add_row({std::to_string(record.round),
                   util::format_double(record.accuracy, 3),
                   util::format_double(record.loss, 3),
                   std::to_string(record.accepted),
                   std::to_string(record.rejected),
                   std::to_string(record.uncertain),
                   util::format_double(record.fairness, 3)});
  }
  return table;
}

}  // namespace fifl::core
