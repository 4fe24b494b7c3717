#include "net/cluster.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "net/tcp.hpp"
#include "nn/checkpoint.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace fifl::net {

Cluster::Cluster(ClusterConfig config, const fl::ModelFactory& factory,
                 std::vector<fl::WorkerSetup> setups, data::Dataset test_set)
    : config_(config), test_set_(std::move(test_set)) {
  const std::size_t n = setups.size();
  const std::size_t m = config_.fifl.servers;
  if (n == 0) throw std::invalid_argument("Cluster: no workers");
  if (m == 0 || m > n) {
    throw std::invalid_argument("Cluster: servers must be in [1, workers]");
  }
  if (!config_.worker_codecs.empty() && config_.worker_codecs.size() != n) {
    throw std::invalid_argument(
        "Cluster: worker_codecs must be empty or one mask per worker");
  }
  if ((config_.rotate_executor || config_.failover) &&
      !config_.replicate_ledger) {
    throw std::invalid_argument(
        "Cluster: rotation/failover requires replicate_ledger");
  }

  // Same deterministic construction as the in-process Simulator: this is
  // the seed-equivalence anchor.
  fl::FederationInit init =
      fl::make_federation_init(config_.sim, factory, std::move(setups));

  const Topology topology{static_cast<std::uint32_t>(n),
                          static_cast<std::uint32_t>(m)};
  if (config_.transport_override) {
    transport_ = config_.transport_override;
  } else {
    switch (config_.transport) {
      case TransportKind::kLoopback:
        transport_ = std::make_shared<LoopbackTransport>();
        break;
      case TransportKind::kTcp:
        transport_ = std::make_shared<TcpTransport>();
        break;
    }
  }

  // Open every endpoint before any node thread runs, so the first send
  // (TCP: the first connect) always finds its peer listed.
  std::vector<std::unique_ptr<Endpoint>> worker_eps;
  worker_eps.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    worker_eps.push_back(transport_->open(topology.worker_key(i)));
  }
  std::vector<std::unique_ptr<Endpoint>> server_eps;
  server_eps.reserve(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    server_eps.push_back(transport_->open(topology.server_key(j)));
  }

  // Rotation/failover: every server may become the executor, so every
  // server needs its own θ replica — byte-copied from the lead's initial
  // model, so all replicas start bit-identical.
  const bool theta_everywhere = config_.rotate_executor || config_.failover;
  std::vector<std::uint8_t> theta_bytes;
  if (theta_everywhere) {
    theta_bytes = nn::checkpoint_bytes(*init.global_model, "cluster-init");
  }

  for (std::uint32_t j = 0; j < m; ++j) {
    ServerNodeConfig sc;
    sc.server_index = j;
    sc.rounds = config_.rounds;
    sc.global_learning_rate = config_.sim.global_learning_rate;
    sc.timeouts = config_.timeouts;
    sc.quorum = config_.quorum;
    sc.compression = config_.compression;
    sc.replicate_ledger = config_.replicate_ledger;
    sc.ledger_key_seed = config_.fifl.key_seed;
    sc.rotate_executor = config_.rotate_executor;
    sc.failover = config_.failover;
    // Every server gets an identical engine replica (deterministic state
    // machine); only the lead owns θ unless the executor role can move.
    auto engine = std::make_unique<core::FiflEngine>(config_.fifl, n,
                                                     init.param_count);
    std::unique_ptr<nn::Sequential> model;
    if (j == 0) {
      model = std::move(init.global_model);
    } else if (theta_everywhere) {
      util::Rng dummy(0);  // parameters are overwritten by the restore
      model = factory(dummy);
      nn::restore_checkpoint(*model, theta_bytes);
    }
    server_nodes_.push_back(std::make_unique<ServerNode>(
        sc, std::move(engine), std::move(model), std::move(server_eps[j]),
        topology));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t codecs = config_.worker_codecs.empty()
                                     ? fl::kAllCodecs
                                     : config_.worker_codecs[i];
    worker_nodes_.push_back(std::make_unique<WorkerNode>(
        std::move(init.workers[i]), std::move(worker_eps[i]), topology,
        config_.timeouts, codecs,
        WorkerAuditConfig{config_.replicate_ledger, config_.fifl.key_seed}));
  }
}

Cluster::~Cluster() {
  for (auto& node : worker_nodes_) node->request_stop();
  for (auto& node : server_nodes_) node->request_stop();
}

void Cluster::set_trace_recorder(obs::RoundTraceRecorder* recorder) {
  // Any server can drive rounds under rotation/failover; wiring every one
  // is harmless otherwise (followers never record round traces).
  for (auto& node : server_nodes_) node->set_trace_recorder(recorder);
}

void Cluster::set_round_callback(ServerNode::RoundCallback callback) {
  for (auto& node : server_nodes_) node->set_round_callback(callback);
}

const std::vector<NetRoundResult>& Cluster::run() {
  if (ran_) throw std::logic_error("Cluster::run: already ran");
  ran_ = true;
  util::log_info() << "net: cluster starting (" << worker_nodes_.size()
                   << " workers, " << server_nodes_.size() << " servers, "
                   << (config_.transport == TransportKind::kTcp ? "tcp"
                                                                : "loopback")
                   << ", " << config_.rounds << " rounds)";

  const std::size_t total = worker_nodes_.size() + server_nodes_.size();
  std::vector<std::exception_ptr> failures(total);
  std::vector<std::thread> threads;
  threads.reserve(total);

  auto stop_all = [this] {
    for (auto& node : worker_nodes_) node->request_stop();
    for (auto& node : server_nodes_) node->request_stop();
  };

  std::size_t slot = 0;
  for (auto& node : server_nodes_) {
    threads.emplace_back([&failures, &stop_all, slot, raw = node.get()] {
      try {
        raw->run();
      } catch (...) {
        failures[slot] = std::current_exception();
        stop_all();
      }
    });
    ++slot;
  }
  for (auto& node : worker_nodes_) {
    threads.emplace_back([&failures, &stop_all, slot, raw = node.get()] {
      // Each worker owns a thread, like the Simulator's one pool task per
      // worker, so its step runs serially here rather than queueing matmul
      // chunks on the shared pool behind the other workers'. parallel_for
      // splits work by output element, so the bytes are the same.
      const util::ThreadPool::InlineScope inline_regions;
      try {
        raw->run();
      } catch (...) {
        failures[slot] = std::current_exception();
        stop_all();
      }
    });
    ++slot;
  }
  for (auto& thread : threads) thread.join();

  for (std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  // Each server holds the results of the rounds it drove: the lead alone
  // under a fixed executor, any server once rotation or failover moved the
  // role. Merge in round order; a re-driven round (its first executor
  // crashed after finishing it) appears twice with bit-identical content,
  // so first writer wins.
  merged_results_.clear();
  for (auto& node : server_nodes_) {
    for (const NetRoundResult& row : node->results()) {
      merged_results_.push_back(row);
    }
  }
  std::stable_sort(merged_results_.begin(), merged_results_.end(),
                   [](const NetRoundResult& a, const NetRoundResult& b) {
                     return a.round < b.round;
                   });
  merged_results_.erase(
      std::unique(merged_results_.begin(), merged_results_.end(),
                  [](const NetRoundResult& a, const NetRoundResult& b) {
                    return a.round == b.round;
                  }),
      merged_results_.end());
  util::log_info() << "net: cluster finished " << merged_results_.size()
                   << " rounds";
  return merged_results_;
}

fl::Evaluation Cluster::final_evaluation() {
  // The freshest θ replica is the cluster's final model (the lead's
  // unless rotation/failover moved the executor role).
  ServerNode* best = server_nodes_.at(0).get();
  for (auto& node : server_nodes_) {
    if (node->global_model() && node->theta_rounds() > best->theta_rounds()) {
      best = node.get();
    }
  }
  nn::Sequential* model = best->global_model();
  if (!model) throw std::logic_error("Cluster: lead has no model");
  return fl::evaluate_model(*model, test_set_, config_.sim.eval_batch_size);
}

}  // namespace fifl::net
