// Cluster harness: launches M ServerNodes + N WorkerNodes, each on its
// own thread, over loopback or localhost TCP, and runs the full FIFL
// round loop end to end. Worker threads run their local step's
// parallel_for regions inline (util::ThreadPool::InlineScope); servers'
// engines use the shared pool.
//
// Construction is the same deterministic fl::make_federation_init the
// in-process Simulator uses, and every server runs a FiflEngine replica
// built from the same FiflConfig — so a cluster run on seed s reproduces
// a Simulator+FederatedTrainer run on seed s bit for bit (the
// equivalence keystone test pins this: identical per-round model hashes,
// reputations, and rewards).
#pragma once

#include <memory>
#include <vector>

#include "core/fifl.hpp"
#include "data/dataset.hpp"
#include "fl/simulator.hpp"
#include "net/node.hpp"

namespace fifl::net {

enum class TransportKind : std::uint8_t { kLoopback = 0, kTcp = 1 };

struct ClusterConfig {
  fl::SimulatorConfig sim;   // seed, local SGD hyper-parameters, η
  core::FiflConfig fifl;     // detection/reputation/incentive; M = fifl.servers
  std::size_t rounds = 5;
  TransportKind transport = TransportKind::kLoopback;
  NodeTimeouts timeouts;
  QuorumConfig quorum;
  /// Lead-side wire-compression preferences (defaults: everything dense,
  /// byte-identical to the uncompressed protocol).
  CompressionPolicy compression;
  /// Per-worker codec capability masks advertised at Join. Empty = every
  /// worker advertises fl::kAllCodecs; otherwise must have one entry per
  /// worker (mixed-codec clusters set some entries to just kDense).
  std::vector<std::uint32_t> worker_codecs;
  /// When set, the cluster runs over this transport instead of building
  /// one from `transport` — the hook chaos tests use to wrap loopback or
  /// TCP in a FaultyTransport and inspect its fault log after run().
  std::shared_ptr<Transport> transport_override;
  /// Replicate the audit ledger: the lead proposes each sealed block,
  /// followers endorse it with signed votes, blocks commit on quorum, and
  /// workers verify Merkle inclusion proofs of their own records against
  /// an independently derived key registry (seeded from fifl.key_seed).
  bool replicate_ledger = false;
  /// Executor rotation: every server holds a θ replica and each
  /// RoundSummary hands the executor role to the next live server
  /// (chain-head handoff). Requires replicate_ledger.
  bool rotate_executor = false;
  /// Lead failover: followers elect a replacement executor when the
  /// current one goes silent, and crashed servers rejoin by replaying the
  /// committed chain. Requires replicate_ledger.
  bool failover = false;
};

class Cluster {
 public:
  /// `setups` defines N (one worker node each); `test_set` is used by
  /// final_evaluation(). Nodes are constructed eagerly (deterministic
  /// seeding happens here), threads start in run().
  Cluster(ClusterConfig config, const fl::ModelFactory& factory,
          std::vector<fl::WorkerSetup> setups, data::Dataset test_set);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs every node to completion and returns the per-round results,
  /// merged across every server in round order (first writer wins on a
  /// re-driven round); under a fixed executor they are the lead's rows.
  /// Rethrows the first node failure (after stopping the rest).
  const std::vector<NetRoundResult>& run();

  /// Test loss/accuracy of the final global model: the θ replica that
  /// advanced the furthest (the lead's, unless the executor role moved).
  fl::Evaluation final_evaluation();

  /// Per-round traces land here when set before run() (defaults to the
  /// process-global recorder).
  void set_trace_recorder(obs::RoundTraceRecorder* recorder);

  /// Invoked by the lead after each round with the result row and the
  /// new global parameters. Runs on the lead's thread.
  void set_round_callback(ServerNode::RoundCallback callback);

  std::size_t worker_count() const noexcept { return worker_nodes_.size(); }
  std::size_t server_count() const noexcept { return server_nodes_.size(); }
  const WorkerNode& worker_node(std::size_t i) const {
    return *worker_nodes_.at(i);
  }
  const ServerNode& lead() const { return *server_nodes_.at(0); }
  const ServerNode& server_node(std::size_t j) const {
    return *server_nodes_.at(j);
  }

 private:
  ClusterConfig config_;
  data::Dataset test_set_;
  std::shared_ptr<Transport> transport_;
  std::vector<std::unique_ptr<WorkerNode>> worker_nodes_;
  std::vector<std::unique_ptr<ServerNode>> server_nodes_;
  /// Round results merged across all servers.
  std::vector<NetRoundResult> merged_results_;
  bool ran_ = false;
};

}  // namespace fifl::net
