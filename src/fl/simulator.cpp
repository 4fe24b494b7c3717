#include "fl/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <numeric>
#include <limits>
#include <stdexcept>
#include <utility>

#include "data/partition.hpp"
#include "obs/scoped_timer.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/parallel_for.hpp"
#include "util/thread_pool.hpp"

namespace fifl::fl {

namespace {
// Elements of G̃ per aggregation task: a 16 KB block stays in L1 while
// every accepted upload's matching segment streams through it.
constexpr std::size_t kAggregateBlock = 4096;
}  // namespace

FederationInit make_federation_init(const SimulatorConfig& config,
                                    const ModelFactory& factory,
                                    std::vector<WorkerSetup> workers) {
  if (workers.empty()) {
    throw std::invalid_argument("make_federation_init: no workers");
  }
  FederationInit init;
  util::Rng rng(config.seed);
  init.global_model = factory(rng);
  if (!init.global_model) {
    throw std::invalid_argument("make_federation_init: null global model");
  }
  init.param_count = init.global_model->parameter_count();

  init.workers.reserve(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    WorkerConfig wc;
    wc.id = static_cast<chain::NodeId>(i);
    wc.local_iterations = config.local_iterations;
    wc.batch_size = config.batch_size;
    wc.learning_rate = config.learning_rate;
    // Per-worker streams are split by worker index, never by thread or
    // arrival order: worker i's gradient sequence is a pure function of
    // (seed, i, round), however the pool schedules it or however its
    // uploads interleave on the wire.
    init.workers.push_back(std::make_unique<Worker>(
        wc, std::move(workers[i].shard), std::move(workers[i].behaviour),
        factory, rng.split(1000 + i)));
  }
  return init;
}

Gradient aggregate(std::span<const Upload> uploads, std::span<const int> accept,
                   std::size_t width) {
  if (accept.size() != uploads.size()) {
    throw std::invalid_argument("aggregate: mask size mismatch");
  }
  Gradient out(width);
  double total_weight = 0.0;
  // order: upload index ascending (fixed input order)
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    if (!uploads[i].arrived || !accept[i]) continue;
    total_weight += static_cast<double>(uploads[i].samples);
  }
  if (total_weight == 0.0) return out;
  // (weight, gradient) of each accepted upload, upload index ascending.
  std::vector<std::pair<float, const float*>> terms;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    if (!uploads[i].arrived || !accept[i]) continue;
    if (uploads[i].gradient.size() != width) {
      throw std::invalid_argument("aggregate: upload gradient size mismatch");
    }
    terms.emplace_back(
        static_cast<float>(static_cast<double>(uploads[i].samples) / total_weight),
        uploads[i].gradient.data());
  }
  // One pool task per element block of G̃ applies every accepted upload in
  // ascending upload order. axpy is elementwise, so neither the block size
  // nor the pool size changes a byte.
  const tensor::kernels::KernelTable& kt = tensor::kernels::active();
  float* global = out.data();
  const auto aggregate_block = [&](std::size_t b) {
    const std::size_t lo = b * kAggregateBlock;
    const std::size_t len = std::min(kAggregateBlock, width - lo);
    for (const auto& [weight, gradient] : terms) {
      kt.axpy(global + lo, weight, gradient + lo, len);
    }
  };
  util::parallel_for(0, (width + kAggregateBlock - 1) / kAggregateBlock,
                     aggregate_block, /*grain=*/1);
  return out;
}

void apply_gradient_step(nn::Sequential& model, const Gradient& gradient,
                         double learning_rate) {
  if (model.parameter_count() != gradient.size()) {
    throw std::invalid_argument("apply_gradient_step: size mismatch");
  }
  // The reference expression itself, not the axpy kernel with −η: θ keeps
  // the reference step's bits by construction, NaN and ±0 included.
  const auto lr = static_cast<float>(learning_rate);
  const float* g = gradient.data();
  for (nn::Parameter* p : model.parameters()) {
    float* theta = p->value.data();
    const std::size_t n = p->value.numel();
    for (std::size_t i = 0; i < n; ++i) theta[i] -= lr * g[i];
    g += n;
  }
}

Simulator::Simulator(SimulatorConfig config, const ModelFactory& factory,
                     std::vector<WorkerSetup> workers, data::Dataset test_set)
    : config_(config), test_set_(std::move(test_set)),
      channel_(config.channel_drop_prob, util::Rng(config.seed ^ 0xc4a1ull)) {
  test_set_.validate();

  auto& metrics = obs::MetricsRegistry::global();
  local_train_hist_ = &metrics.histogram("sim.local_train_ms");
  channel_hist_ = &metrics.histogram("sim.channel_ms");
  rounds_counter_ = &metrics.counter("sim.rounds");
  uploads_lost_counter_ = &metrics.counter("sim.uploads_lost");

  FederationInit init = make_federation_init(config_, factory, std::move(workers));
  global_model_ = std::move(init.global_model);
  param_count_ = init.param_count;
  workers_ = std::move(init.workers);
}

std::vector<Upload> Simulator::collect_uploads() {
  const std::vector<int> all(workers_.size(), 1);
  return collect_uploads(all);
}

std::vector<Upload> Simulator::collect_uploads(
    std::span<const int> participants) {
  if (participants.size() != workers_.size()) {
    throw std::invalid_argument("Simulator: participant mask size mismatch");
  }
  const std::vector<float> params = global_model_->flatten_parameters();
  std::vector<Upload> uploads(workers_.size());

  {
    obs::ScopedTimer train_timer(*local_train_hist_);
    auto& pool = util::ThreadPool::global();
    std::vector<std::future<void>> futures;
    futures.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!participants[i]) {
        uploads[i].worker = workers_[i]->id();
        uploads[i].samples = workers_[i]->samples();
        uploads[i].arrived = false;
        continue;
      }
      futures.push_back(pool.submit([this, i, &params, &uploads] {
        uploads[i] = workers_[i]->make_upload(params);
      }));
    }
    for (auto& f : futures) f.get();
    phase_times_.local_train_ms = train_timer.stop();
  }

  {
    obs::ScopedTimer channel_timer(*channel_hist_);
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      if (participants[i]) {
        channel_.transmit(uploads[i]);
        if (!uploads[i].arrived) uploads_lost_counter_->inc();
      }
    }
    phase_times_.channel_ms = channel_timer.stop();
  }
  rounds_counter_->inc();
  ++round_;
  return uploads;
}

std::vector<int> Simulator::sample_participants(double fraction,
                                                util::Rng& rng) const {
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument("Simulator: participation fraction outside (0,1]");
  }
  const std::size_t n = workers_.size();
  const auto take = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(n))));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order.begin(), order.size());
  std::vector<int> mask(n, 0);
  for (std::size_t k = 0; k < take; ++k) mask[order[k]] = 1;
  return mask;
}

Gradient Simulator::apply_round(std::span<const Upload> uploads,
                                std::span<const int> accept) {
  Gradient agg = aggregate(uploads, accept, param_count_);
  apply_gradient(agg);
  return agg;
}

void Simulator::apply_gradient(const Gradient& global_gradient) {
  apply_gradient_step(*global_model_, global_gradient,
                      config_.global_learning_rate);
}

Gradient Simulator::apply_round(std::span<const Upload> uploads) {
  std::vector<int> accept(uploads.size(), 1);
  return apply_round(uploads, accept);
}

Evaluation evaluate_model(nn::Sequential& model, const data::Dataset& test_set,
                          std::size_t eval_batch_size) {
  Evaluation result;
  for (const nn::Parameter* p : model.parameters()) {
    if (tensor::has_nonfinite(p->value)) {
      result.loss = std::numeric_limits<double>::quiet_NaN();
      result.accuracy = 1.0 / static_cast<double>(test_set.classes);
      return result;
    }
  }
  const std::size_t n = test_set.size();
  const std::size_t bs = std::min(eval_batch_size, n);
  double loss_sum = 0.0;
  std::size_t correct = 0;
  const std::size_t c = test_set.images.dim(1), h = test_set.images.dim(2),
                    w = test_set.images.dim(3);
  const std::size_t stride = c * h * w;
  nn::SoftmaxCrossEntropy eval_loss;
  for (std::size_t start = 0; start < n; start += bs) {
    const std::size_t count = std::min(bs, n - start);
    tensor::Tensor batch({count, c, h, w});
    for (std::size_t k = 0; k < count; ++k) {
      const float* src = test_set.images.data() + (start + k) * stride;
      float* dst = batch.data() + k * stride;
      for (std::size_t j = 0; j < stride; ++j) dst[j] = src[j];
    }
    std::span<const std::int32_t> labels(test_set.labels.data() + start, count);
    const tensor::Tensor logits = model.forward(batch);
    loss_sum += eval_loss.forward(logits, labels) * static_cast<double>(count);
    correct += static_cast<std::size_t>(
        nn::accuracy(logits, labels) * static_cast<double>(count) + 0.5);
  }
  result.loss = loss_sum / static_cast<double>(n);
  result.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  return result;
}

Evaluation Simulator::evaluate() {
  return evaluate_model(*global_model_, test_set_, config_.eval_batch_size);
}

bool Simulator::model_crashed() {
  for (const nn::Parameter* p : global_model_->parameters()) {
    if (tensor::has_nonfinite(p->value)) return true;
  }
  return false;
}

std::vector<WorkerSetup> make_worker_setups(const data::Dataset& train,
                                            std::vector<BehaviourPtr> behaviours,
                                            util::Rng& rng) {
  if (behaviours.empty()) {
    throw std::invalid_argument("make_worker_setups: no behaviours");
  }
  auto shards = data::partition_iid_equal(train, behaviours.size(), rng);
  std::vector<WorkerSetup> setups;
  setups.reserve(behaviours.size());
  for (std::size_t i = 0; i < behaviours.size(); ++i) {
    setups.push_back(WorkerSetup{std::move(shards[i]), std::move(behaviours[i])});
  }
  return setups;
}

}  // namespace fifl::fl
