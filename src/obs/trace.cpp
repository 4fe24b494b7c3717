#include "obs/trace.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/logging.hpp"

namespace fifl::obs {

std::string RoundTrace::to_jsonl() const {
  JsonWriter w;
  w.begin_object();
  w.key("round").value(static_cast<std::uint64_t>(round));
  w.key("degraded").value(degraded);
  w.key("fairness").value(fairness);
  if (evaluated) {
    w.key("eval").begin_object();
    w.key("loss").value(eval_loss);
    w.key("accuracy").value(eval_accuracy);
    w.end_object();
  } else {
    w.key("eval").null();
  }
  w.key("phases_ms").begin_object();
  w.key("local_train").value(phases.local_train_ms);
  w.key("channel").value(phases.channel_ms);
  w.key("detect").value(phases.detect_ms);
  w.key("aggregate").value(phases.aggregate_ms);
  w.key("ledger").value(phases.ledger_ms);
  w.end_object();
  if (has_net) {
    w.key("net").begin_object();
    w.key("bytes_tx").value(net.bytes_tx);
    w.key("bytes_rx").value(net.bytes_rx);
    w.key("msgs_tx").value(net.msgs_tx);
    w.key("msgs_rx").value(net.msgs_rx);
    w.key("frame_errors").value(net.frame_errors);
    w.key("late_uploads").value(net.late_uploads);
    w.key("send_retries").value(net.send_retries);
    w.key("dropped_workers").value(net.dropped_workers);
    if (!net.bytes_tx_by_type.empty()) {
      w.key("bytes_tx_by_type").begin_object();
      for (const auto& [name, bytes] : net.bytes_tx_by_type) {
        w.key(name).value(bytes);
      }
      w.end_object();
    }
    if (!net.bytes_rx_by_type.empty()) {
      w.key("bytes_rx_by_type").begin_object();
      for (const auto& [name, bytes] : net.bytes_rx_by_type) {
        w.key(name).value(bytes);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.key("workers").begin_array();
  for (const WorkerTrace& wt : workers) {
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(wt.id));
    w.key("arrived").value(wt.arrived);
    w.key("accepted").value(wt.accepted);
    w.key("uncertain").value(wt.uncertain);
    w.key("detection_score").value(wt.detection_score);
    w.key("reputation").value(wt.reputation);
    w.key("contribution").value(wt.contribution);
    w.key("reward").value(wt.reward);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

RoundTrace RoundTrace::from_jsonl(std::string_view line) {
  const JsonValue v = json_parse(line);
  RoundTrace t;
  t.round = static_cast<std::uint64_t>(v.at("round").as_number());
  t.degraded = v.at("degraded").as_bool();
  t.fairness = v.at("fairness").as_number();
  const JsonValue& eval = v.at("eval");
  if (!eval.is_null()) {
    t.evaluated = true;
    t.eval_loss = eval.at("loss").as_number();
    t.eval_accuracy = eval.at("accuracy").as_number();
  }
  const JsonValue& phases = v.at("phases_ms");
  t.phases.local_train_ms = phases.at("local_train").as_number();
  t.phases.channel_ms = phases.at("channel").as_number();
  t.phases.detect_ms = phases.at("detect").as_number();
  t.phases.aggregate_ms = phases.at("aggregate").as_number();
  t.phases.ledger_ms = phases.at("ledger").as_number();
  if (const JsonValue* net = v.find("net")) {
    t.has_net = true;
    t.net.bytes_tx = static_cast<std::uint64_t>(net->at("bytes_tx").as_number());
    t.net.bytes_rx = static_cast<std::uint64_t>(net->at("bytes_rx").as_number());
    t.net.msgs_tx = static_cast<std::uint64_t>(net->at("msgs_tx").as_number());
    t.net.msgs_rx = static_cast<std::uint64_t>(net->at("msgs_rx").as_number());
    t.net.frame_errors =
        static_cast<std::uint64_t>(net->at("frame_errors").as_number());
    t.net.late_uploads =
        static_cast<std::uint64_t>(net->at("late_uploads").as_number());
    t.net.send_retries =
        static_cast<std::uint64_t>(net->at("send_retries").as_number());
    t.net.dropped_workers =
        static_cast<std::uint64_t>(net->at("dropped_workers").as_number());
    // Per-type byte maps (to_jsonl omits an empty map).
    if (const JsonValue* v2 = net->find("bytes_tx_by_type")) {
      for (const auto& [name, val] : v2->object) {
        t.net.bytes_tx_by_type.emplace_back(
            name, static_cast<std::uint64_t>(val.as_number()));
      }
    }
    if (const JsonValue* v2 = net->find("bytes_rx_by_type")) {
      for (const auto& [name, val] : v2->object) {
        t.net.bytes_rx_by_type.emplace_back(
            name, static_cast<std::uint64_t>(val.as_number()));
      }
    }
  }
  const JsonValue& workers = v.at("workers");
  if (workers.kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("RoundTrace: 'workers' is not an array");
  }
  t.workers.reserve(workers.array.size());
  for (const JsonValue& wv : workers.array) {
    WorkerTrace wt;
    wt.id = static_cast<std::uint64_t>(wv.at("id").as_number());
    wt.arrived = wv.at("arrived").as_bool();
    wt.accepted = wv.at("accepted").as_bool();
    wt.uncertain = wv.at("uncertain").as_bool();
    wt.detection_score = wv.at("detection_score").as_number();
    wt.reputation = wv.at("reputation").as_number();
    wt.contribution = wv.at("contribution").as_number();
    wt.reward = wv.at("reward").as_number();
    t.workers.push_back(wt);
  }
  return t;
}

RoundTraceRecorder::RoundTraceRecorder(const std::string& path) {
  if (path.empty()) return;
  if (path == "-") {
    to_stdout_ = true;
    return;
  }
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("RoundTraceRecorder: cannot open " + path);
  }
  util::log_info() << "obs: streaming round traces to " << path;
}

void RoundTraceRecorder::record(const RoundTrace& trace) {
  if (!enabled_) return;
  util::MutexLock lock(mutex_);
  traces_.push_back(trace);
  if (to_stdout_) {
    std::cout << trace.to_jsonl() << '\n' << std::flush;
  } else if (out_.is_open()) {
    out_ << trace.to_jsonl() << '\n' << std::flush;
  }
}

std::size_t RoundTraceRecorder::size() const {
  util::MutexLock lock(mutex_);
  return traces_.size();
}

std::vector<RoundTrace> RoundTraceRecorder::read_jsonl_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("RoundTraceRecorder: cannot read " + path);
  }
  std::vector<RoundTrace> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.push_back(RoundTrace::from_jsonl(line));
  }
  return out;
}

RoundTraceRecorder& RoundTraceRecorder::global() {
  static RoundTraceRecorder* instance = [] {
    const char* path = std::getenv("FIFL_TRACE_OUT");
    if (!path || !*path) return new RoundTraceRecorder(DisabledTag{});
    return new RoundTraceRecorder(std::string(path));
  }();
  return *instance;
}

}  // namespace fifl::obs
