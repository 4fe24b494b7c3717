// Round-based federated learning simulator (Sec. 3.1 training loop).
//
// Each round: (1) all workers train locally from the broadcast global
// parameters — in parallel, one pool task per worker, whose own
// parallel_for regions then run serially inside it (net::Cluster's
// co-located worker nodes run the same way, each on its own thread under a
// util::ThreadPool::InlineScope); (2) uploads pass
// through the lossy channel; (3) the caller decides an acceptance mask
// (plain FedAvg accepts everything that arrived; FIFL's detection module
// rejects attackers) and the simulator aggregates per Eq. 2 and steps the
// global model per Eq. 3 — or steps with a G̃ the caller already holds.
//
// Keeping the accept-mask decision *outside* the simulator is the seam
// that lets the same mechanics run FedAvg baselines and FIFL side by side.
#pragma once

#include <memory>
#include <vector>

#include "fl/channel.hpp"
#include "fl/topology.hpp"
#include "fl/worker.hpp"
#include "obs/metrics.hpp"

namespace fifl::fl {

struct SimulatorConfig {
  std::size_t local_iterations = 1;   // K
  std::size_t batch_size = 32;
  double learning_rate = 0.05;        // worker-local η
  double global_learning_rate = 0.05; // η in Eq. 3
  double channel_drop_prob = 0.0;
  std::size_t eval_batch_size = 256;
  std::uint64_t seed = 1;
};

struct WorkerSetup {
  data::Dataset shard;
  BehaviourPtr behaviour;
};

struct Evaluation {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// Wall-times of the last collect_uploads() call, split by phase. Also
/// fed into the global metrics registry ("sim.local_train_ms" /
/// "sim.channel_ms" histograms) for aggregate views.
struct SimPhaseTimes {
  double local_train_ms = 0.0;  // parallel local training fan-out/join
  double channel_ms = 0.0;      // lossy-channel transmission
};

/// The deterministic construction shared by the in-process Simulator and
/// the fifl::net cluster: global model from Rng(seed), then workers with
/// streams split off the post-factory state. Both runtimes call this one
/// function, which is what makes a networked run reproduce a simulator
/// run bit-for-bit on the same seed.
struct FederationInit {
  std::unique_ptr<nn::Sequential> global_model;
  std::vector<std::unique_ptr<Worker>> workers;
  std::size_t param_count = 0;
};

FederationInit make_federation_init(const SimulatorConfig& config,
                                    const ModelFactory& factory,
                                    std::vector<WorkerSetup> workers);

/// G̃ = Σ n_i·G_i / Σ n_i over the uploads that arrived with accept[i] != 0
/// (Eq. 2 with the r_i mask of Eq. 7), `width` elements long: the one
/// aggregation FiflEngine, the Simulator and the FedAvg and FIFL-detection
/// baselines share. G̃ is zero when nothing is accepted or the accepted
/// samples sum to 0. Element blocks of G̃ run as tasks on
/// util::ThreadPool::global() (serially when called from a pool task or
/// inside a util::ThreadPool::InlineScope), and
/// each element adds its terms in ascending upload order, so the bytes do
/// not depend on the pool. Throws std::invalid_argument if accept and
/// uploads differ in size or an accepted upload is not `width` long.
Gradient aggregate(std::span<const Upload> uploads, std::span<const int> accept,
                   std::size_t width);

/// θ ← θ − η·G̃ (Eq. 3) in place, θ[i] -= η·G̃[i] in each parameter
/// tensor: the single global-step implementation the Simulator, the
/// trainer and net::ServerNode use (same float ops, same order). Throws
/// std::invalid_argument if G̃ is not parameter-count long.
void apply_gradient_step(nn::Sequential& model, const Gradient& gradient,
                         double learning_rate);

/// Test loss/accuracy of `model` over `test_set` in batches; NaN loss and
/// chance-level accuracy when parameters are non-finite.
Evaluation evaluate_model(nn::Sequential& model, const data::Dataset& test_set,
                          std::size_t eval_batch_size);

class Simulator {
 public:
  Simulator(SimulatorConfig config, const ModelFactory& factory,
            std::vector<WorkerSetup> workers, data::Dataset test_set);

  std::size_t worker_count() const noexcept { return workers_.size(); }
  Worker& worker(std::size_t i) { return *workers_.at(i); }
  const Worker& worker(std::size_t i) const { return *workers_.at(i); }
  nn::Sequential& global_model() noexcept { return *global_model_; }
  std::size_t parameter_count() const noexcept { return param_count_; }
  std::uint64_t round() const noexcept { return round_; }
  const data::Dataset& test_set() const noexcept { return test_set_; }
  const SimPhaseTimes& last_phase_times() const noexcept { return phase_times_; }

  /// Phase 1+2: parallel local training, then channel transmission.
  /// Uploads are ordered by worker index.
  std::vector<Upload> collect_uploads();

  /// Partial participation: only workers with participants[i] != 0 train
  /// and transmit; the rest produce absent uploads (arrived = false,
  /// empty gradient) without spending any compute — downstream they are
  /// "uncertain events", exactly like channel losses.
  std::vector<Upload> collect_uploads(std::span<const int> participants);

  /// Uniformly samples ceil(fraction·N) participants (at least 1).
  std::vector<int> sample_participants(double fraction, util::Rng& rng) const;

  /// Phase 3: aggregate uploads i with accept[i] != 0 weighted by n_i
  /// (fl::aggregate) and apply θ ← θ − η·G̃ (Eq. 3). Returns G̃. If nothing
  /// is accepted the round is a no-op (zero G̃).
  Gradient apply_round(std::span<const Upload> uploads,
                       std::span<const int> accept);

  /// FedAvg: accept every upload that arrived.
  Gradient apply_round(std::span<const Upload> uploads);

  /// θ ← θ − η·G̃ (Eq. 3) with a G̃ aggregated elsewhere — the trainer
  /// steps with FiflEngine's report.global_gradient instead of
  /// aggregating the round a second time.
  void apply_gradient(const Gradient& global_gradient);

  /// Test loss/accuracy of the current global model. If the model has
  /// diverged to non-finite parameters, returns {NaN, chance-level}.
  Evaluation evaluate();

  /// True once any global parameter is NaN/Inf (the paper's p_s >= 10
  /// crash mode, Fig. 7a). Non-const because parameter access goes
  /// through the (stateful) layer interface.
  bool model_crashed();

 private:
  SimulatorConfig config_;
  std::unique_ptr<nn::Sequential> global_model_;
  std::size_t param_count_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  data::Dataset test_set_;
  Channel channel_;
  std::uint64_t round_ = 0;
  SimPhaseTimes phase_times_;
  // Metrics handles resolved once (registry references are stable).
  obs::Histogram* local_train_hist_ = nullptr;
  obs::Histogram* channel_hist_ = nullptr;
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* uploads_lost_counter_ = nullptr;
};

/// Convenience: WorkerSetup list with the given behaviours over an iid
/// equal split of `train`; behaviours.size() defines the worker count.
std::vector<WorkerSetup> make_worker_setups(const data::Dataset& train,
                                            std::vector<BehaviourPtr> behaviours,
                                            util::Rng& rng);

}  // namespace fifl::fl
