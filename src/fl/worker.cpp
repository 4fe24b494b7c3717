#include "fl/worker.hpp"

#include <stdexcept>

#include "nn/optimizer.hpp"

namespace fifl::fl {

Worker::Worker(WorkerConfig config, data::Dataset shard, BehaviourPtr behaviour,
               const ModelFactory& factory, util::Rng rng)
    : config_(config), behaviour_(std::move(behaviour)), rng_(rng) {
  if (!behaviour_) throw std::invalid_argument("Worker: null behaviour");
  if (config_.local_iterations == 0) {
    throw std::invalid_argument("Worker: local_iterations must be >= 1");
  }
  data_ = behaviour_->prepare_data(shard, rng_);
  data_.validate();
  model_ = factory(rng_);
  if (!model_) throw std::invalid_argument("Worker: factory returned null");
  loader_ = std::make_unique<data::BatchLoader>(
      data_, std::min(config_.batch_size, data_.size()), rng_.split(17));
}

Gradient Worker::compute_local_gradient(std::span<const float> global_params) {
  model_->load_parameters(global_params);
  nn::Sgd optimizer(nn::Sgd::Options{.lr = config_.learning_rate});
  const auto params = model_->parameters();
  data::Batch batch;
  for (std::size_t k = 0; k < config_.local_iterations; ++k) {
    if (!loader_->next(batch)) {
      loader_->start_epoch();
      if (!loader_->next(batch)) {
        throw std::runtime_error("Worker: empty data shard");
      }
    }
    model_->zero_grad();
    const tensor::Tensor logits = model_->forward(batch.images);
    loss_.forward(logits, batch.labels);
    model_->backward_params(loss_.backward());
    optimizer.step(params);
  }
  // G_i = (θ_t − θ_{t,K}) / η  — the sum of the K step gradients.
  const std::vector<float> after = model_->flatten_parameters();
  Gradient g(global_params.size());
  const auto inv_lr = static_cast<float>(1.0 / config_.learning_rate);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = (global_params[i] - after[i]) * inv_lr;
  }
  return g;
}

Upload Worker::make_upload(std::span<const float> global_params) {
  Gradient honest = behaviour_->skips_training()
                        ? Gradient(global_params.size())
                        : compute_local_gradient(global_params);
  Upload up;
  up.worker = config_.id;
  up.samples = data_.size();
  up.gradient = behaviour_->transform(std::move(honest), rng_);
  up.ground_truth_attack = behaviour_->attacked_last_round();
  return up;
}

}  // namespace fifl::fl
