#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/contribution.hpp"
#include "core/incentive.hpp"
#include "data/synthetic.hpp"
#include "net/messages.hpp"
#include "nn/checkpoint.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_names(const std::vector<std::string>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += (i ? "," : "") + json_string(names[i]);
  }
  return out + "]";
}

}  // namespace

void Report::metric(std::string name, double value, std::string unit,
                    std::string better, std::string statistic) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                            std::move(better), std::move(statistic)});
}

void Report::check(std::string name, bool passed, std::string detail) {
  ++attempted_;
  if (!passed) ++failed_;
  checks_.push_back(Check{std::move(name), passed, std::move(detail)});
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::budget(std::string total, std::vector<std::string> parts) {
  budgets_.emplace_back(std::move(total), std::move(parts));
}

void Report::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

bool Report::correct() const {
  return failed_ == 0 &&
         std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.passed; });
}

std::string Report::to_json() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":[";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? "," : "") + std::string("{\"name\":") + json_string(m.name) +
           ",\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) +
           ",\"better\":" + json_string(m.better) +
           ",\"statistic\":" + json_string(m.statistic) + "}";
  }
  out += "],\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    out += (i ? "," : "") + std::string("{\"name\":") + json_string(c.name) +
           ",\"passed\":" + (c.passed ? "true" : "false") +
           ",\"detail\":" + json_string(c.detail) + "}";
  }
  out += "],\"budgets\":[";
  for (std::size_t i = 0; i < budgets_.size(); ++i) {
    out += (i ? "," : "") + std::string("{\"total\":") +
           json_string(budgets_[i].first) +
           ",\"parts\":" + json_names(budgets_[i].second) + "}";
  }
  out += "],\"notes\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out += (i ? "," : "") + json_string(notes_[i].first) + ":" +
           json_string(notes_[i].second);
  }
  return out + "}}";
}

std::size_t timed_rounds(const Options& options, double nominal_rounds_per_s) {
  if (options.smoke) return 12;
  const auto wanted =
      static_cast<std::size_t>(std::llround(options.seconds * nominal_rounds_per_s));
  return std::max(wanted, min_samples_for(0.9));
}

void report_round_times(Report& report, const std::vector<double>& round_ms) {
  const double total = std::accumulate(round_ms.begin(), round_ms.end(), 0.0);
  const std::string n = std::to_string(round_ms.size());
  report.metric("rounds_per_s", 1e3 * static_cast<double>(round_ms.size()) / total,
                "1/s", "higher", "timed rounds / their summed wall time, " + n + " rounds");
  report.metric("round_ms_p50", median(round_ms), "ms", "lower",
                "median of " + n + " round wall times");
  const Percentile p90 = percentile(round_ms, 0.9);
  report.metric("round_ms_p90", p90.value, "ms", "lower",
                "nearest-rank p90 of " + n + " rounds, " +
                    std::to_string(p90.beyond) + " beyond it");
  if (round_ms.size() >= min_samples_for(0.9)) {
    report.check("p90_has_10_samples_beyond", p90.meets_rule(),
                 std::to_string(p90.beyond) + " samples beyond p90");
  }
}

void report_detection_rates(Report& report, const fifl::chain::Ledger& ledger,
                            std::size_t first_block,
                            const std::vector<bool>& attacker) {
  std::uint64_t honest_acc = 0, honest_rej = 0, att_acc = 0, att_rej = 0;
  for (std::size_t b = first_block; b < ledger.block_count(); ++b) {
    for (const fifl::chain::AuditRecord& rec : ledger.block(b).records) {
      if (rec.kind != fifl::chain::RecordKind::kDetection) continue;
      if (rec.subject >= attacker.size() || rec.value < -0.5) continue;
      const bool accepted = rec.value > 0.5;
      if (attacker[rec.subject]) {
        (accepted ? att_acc : att_rej) += 1;
      } else {
        (accepted ? honest_acc : honest_rej) += 1;
      }
    }
  }
  auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  report.metric("honest_accept_rate", share(honest_acc, honest_acc + honest_rej),
                "ratio", "higher",
                "accepted / arrived honest uploads over the timed rounds (ledger)");
  report.metric("attacker_reject_rate", share(att_rej, att_acc + att_rej),
                "ratio", "higher",
                "rejected / arrived attacker uploads over the timed rounds (ledger)");
}

double SetupTiming::total_ms() const {
  double total = 0.0;
  for (const auto& part : parts) total += part.second;
  return total;
}

void report_setup(Report& report, const Options& options,
                  std::vector<SetupTiming> reps) {
  if (reps.empty()) throw std::logic_error("report_setup: no repetitions");
  std::sort(reps.begin(), reps.end(),
            [](const SetupTiming& a, const SetupTiming& b) {
              return a.total_ms() < b.total_ms();
            });
  const SetupTiming& mid = reps[(reps.size() - 1) / 2];
  const std::string stat =
      "median of " + std::to_string(reps.size()) + " setups in this run";
  if (!options.trace) {
    report.metric("setup_s", mid.total_ms() / 1e3, "s", "lower", stat);
    return;
  }
  std::vector<std::string> names;
  for (const auto& [name, ms] : mid.parts) {
    report.metric(name, ms, "ms", "lower", "part of the " + stat);
    names.push_back(name);
  }
  report.metric("bench.setup_ms", mid.total_ms(), "ms", "lower", stat);
  report.budget("bench.setup_ms", names);
}

void report_step_probe(Report& report, fifl::nn::Sequential& model, bool on_pool,
                       std::uint64_t seed) {
  namespace nn = fifl::nn;
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kWarmSteps = 2;
  constexpr std::size_t kSteps = 10;
  const fifl::data::Dataset batch =
      fifl::data::make_synthetic(fifl::data::mnist_like(kBatch, seed));

  // Rows: per-layer-kind forward/backward self times plus loss and SGD.
  enum Row { kConv1Fwd, kConv1Bwd, kConv2Fwd, kConv2Bwd, kLinFwd, kLinBwd,
             kActPool, kLoss, kSgd, kStep, kRows };
  std::vector<double> sums(kRows, 0.0);
  std::vector<int> conv_index(model.size(), -1);
  int convs = 0;
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (model.layer(i).name() == "Conv2d") conv_index[i] = convs++;
  }
  auto row_of = [&](std::size_t i, bool forward) {
    const std::string name = model.layer(i).name();
    if (conv_index[i] == 0) return forward ? kConv1Fwd : kConv1Bwd;
    if (conv_index[i] >= 1) return forward ? kConv2Fwd : kConv2Bwd;
    if (name == "Linear") return forward ? kLinFwd : kLinBwd;
    return kActPool;
  };

  auto body = [&] {
    nn::SoftmaxCrossEntropy loss;
    nn::Sgd sgd(nn::Sgd::Options{.lr = 0.05});
    const auto params = model.parameters();
    for (std::size_t step = 0; step < kWarmSteps + kSteps; ++step) {
      const bool timed = step >= kWarmSteps;
      auto add = [&](Row row, double ms) {
        if (timed) sums[row] += ms;
      };
      const double step_start = now_ms();
      model.zero_grad();
      fifl::tensor::Tensor x = batch.images;
      for (std::size_t i = 0; i < model.size(); ++i) {
        const double t = now_ms();
        x = model.layer(i).forward(x);
        add(row_of(i, true), now_ms() - t);
      }
      double t = now_ms();
      loss.forward(x, batch.labels);
      fifl::tensor::Tensor g = loss.backward();
      add(kLoss, now_ms() - t);
      for (std::size_t i = model.size(); i-- > 0;) {
        t = now_ms();
        g = model.layer(i).backward(g);
        add(row_of(i, false), now_ms() - t);
      }
      t = now_ms();
      sgd.step(params);
      add(kSgd, now_ms() - t);
      add(kStep, now_ms() - step_start);
    }
  };
  if (on_pool) {
    fifl::util::ThreadPool::global().submit(body).get();
  } else {
    std::thread thread(body);
    thread.join();
  }

  const std::string stat = "mean per step of " + std::to_string(kSteps) +
                           " isolated batch-32 steps on " +
                           (on_pool ? "a pool task" : "a plain thread");
  const char* names[kRows] = {"nn.conv1.fwd_ms", "nn.conv1.bwd_ms",
                              "nn.conv2.fwd_ms", "nn.conv2.bwd_ms",
                              "nn.linear.fwd_ms", "nn.linear.bwd_ms",
                              "nn.act_pool_ms",  "nn.loss_ms",
                              "nn.sgd_ms",       "fl.worker_step_ms"};
  for (int row = 0; row < kRows; ++row) {
    report.metric(names[row], sums[static_cast<std::size_t>(row)] / kSteps, "ms",
                  "lower", stat);
  }
}

void report_codec_probe(Report& report, fifl::nn::Sequential& model) {
  namespace net = fifl::net;
  constexpr int kReps = 30;
  net::GradientUploadMsg upload;
  upload.round = 1;
  upload.samples = 600;
  upload.gradient = model.flatten_parameters();
  net::ModelBroadcastMsg broadcast;
  broadcast.round = 1;
  broadcast.checkpoint = fifl::nn::checkpoint_bytes(model, "probe");

  double encode_up = 0.0, decode_up = 0.0, encode_bc = 0.0;
  std::size_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    double t = now_ms();
    const std::vector<std::uint8_t> bytes = net::encode_payload(upload);
    encode_up += now_ms() - t;
    t = now_ms();
    const auto decoded = net::decode_payload<net::GradientUploadMsg>(bytes);
    decode_up += now_ms() - t;
    t = now_ms();
    const std::vector<std::uint8_t> bc = net::encode_payload(broadcast);
    encode_bc += now_ms() - t;
    sink += decoded.gradient.size() + bc.size();
  }
  if (sink == 0) throw std::logic_error("codec probe produced nothing");
  const std::string stat = "mean of " + std::to_string(kReps) +
                           " isolated calls at width " +
                           std::to_string(upload.gradient.size());
  report.metric("net.encode_upload_ms", encode_up / kReps, "ms", "lower", stat);
  report.metric("net.decode_upload_ms", decode_up / kReps, "ms", "lower", stat);
  report.metric("net.encode_broadcast_ms", encode_bc / kReps, "ms", "lower", stat);
}

void report_usage_rows(Report& report, const Usage& before, const Usage& after,
                       double wall_ms, std::size_t rounds) {
  const auto r = static_cast<double>(rounds);
  const std::string stat = "getrusage delta over the untraced pass's timed rounds / rounds";
  report.metric("tensor.page_faults_per_round",
                static_cast<double>(after.minor_faults - before.minor_faults) / r,
                "count", "lower", stat);
  report.metric("tensor.sys_ms_per_round", (after.sys_ms - before.sys_ms) / r,
                "ms", "lower", stat);
  const auto threads =
      static_cast<double>(fifl::util::ThreadPool::global().size());
  report.metric("util.pool_busy_share",
                (after.cpu_ms() - before.cpu_ms()) / (wall_ms * threads), "ratio",
                "higher", "process CPU / (wall × pool threads) over the untraced pass");
}

bool record_round_spans(SpanLog& log, const fifl::core::FiflConfig& config,
                        const fifl::core::RoundReport& report,
                        std::span<const fifl::fl::Upload> uploads, double start,
                        double end, std::optional<double> local_train_ms) {
  const std::uint64_t r = report.round;
  const std::int64_t root = log.add(Span{"round", r, start, end, kNoParent});
  double cursor = start;
  auto child = [&](const char* name, double ms, std::int64_t parent) {
    const std::int64_t id = log.add(Span{name, r, cursor, cursor + ms, parent});
    cursor += ms;
    return id;
  };
  if (local_train_ms) child("local_train", *local_train_ms, root);
  child("detect", report.detect_ms, root);
  const double aggregate_start = cursor;
  const std::int64_t aggregate = child("aggregate", report.aggregate_ms, root);
  child("ledger", report.ledger_ms, root);

  const fifl::core::ContributionModule contribution(config.contribution);
  const fifl::core::IncentiveModule incentive(config.incentive);
  fifl::core::ContributionResult contributions;
  std::vector<double> rewards;
  const double contribution_ms = time_ms(
      [&] { contributions = contribution.run(uploads, report.global_gradient); });
  const double incentive_ms = time_ms([&] {
    rewards = incentive.rewards(report.reputations, contributions.contributions);
  });
  cursor = aggregate_start;
  child("contribution", contribution_ms, aggregate);
  child("incentive", incentive_ms, aggregate);
  return rewards == report.rewards;
}

void report_round_budget(Report& report, const SpanLog& log,
                         std::uint64_t first_round, std::size_t rounds,
                         bool local_train, double untraced_round_ms) {
  const std::vector<Span> spans = log.spans();
  const std::vector<double> self = self_times(spans);
  double round_ms = 0.0;
  for (const Span& s : spans) {
    if (s.name == "round" && s.round >= first_round) round_ms += s.duration_ms();
  }
  round_ms /= static_cast<double>(rounds);

  std::vector<std::pair<std::string, std::string>> rows;  // metric, span
  if (local_train) rows.emplace_back("fl.local_train_ms", "local_train");
  rows.insert(rows.end(), {{"core.detect_ms", "detect"},
                           {"core.aggregate_ms", "aggregate"},
                           {"core.contribution_ms", "contribution"},
                           {"core.incentive_ms", "incentive"},
                           {"chain.ledger_ms", "ledger"},
                           {"core.round_remainder_ms", "round"}});
  std::vector<std::string> parts;
  for (const auto& [metric, span] : rows) {
    double total = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == span && spans[i].round >= first_round) total += self[i];
    }
    report.metric(metric, total / static_cast<double>(rounds), "ms", "lower",
                  "mean self time per timed round (traced run)");
    parts.push_back(metric);
  }
  report.metric("bench.traced_round_ms", round_ms, "ms", "lower",
                "mean round span of the traced run");
  report.budget("bench.traced_round_ms", parts);
  report.metric("bench.traced_rps_ratio", untraced_round_ms / round_ms, "ratio",
                "higher", "traced / untraced rounds_per_s (tracing overhead)");
}

void report_ledger_rows(Report& report, const fifl::obs::MetricsSnapshot& start,
                        const fifl::obs::MetricsSnapshot& end,
                        const fifl::chain::Ledger& ledger, std::size_t first_block,
                        std::size_t rounds, double detect_bytes,
                        double detect_ms) {
  const auto n = static_cast<double>(rounds);
  report.metric("chain.seal_ms", histogram_delta(start, end, "chain.seal_ms").sum / n,
                "ms", "lower", "chain.seal_ms histogram sum / timed rounds");
  std::size_t records = 0;
  for (std::size_t b = first_block; b < ledger.block_count(); ++b) {
    records += ledger.block(b).records.size();
  }
  report.metric("chain.records_per_round", static_cast<double>(records) / n,
                "count", "lower", "ledger records sealed per timed round");
  report.metric("tensor.detect_gb_per_s", detect_bytes / (detect_ms * 1e6), "GB/s",
                "higher", "(arrived uploads + benchmark) bytes / detect time");
}

double mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double time_ms(const std::function<void()>& fn) {
  const double start = now_ms();
  fn();
  return now_ms() - start;
}

}  // namespace perfbench
