// Polycentric server cluster (Sec. 3.2 / Fig. 1).
//
// M of the N devices also act as servers; server j owns gradient slice j.
// M = 1 degenerates to the centralized architecture, M = N to the
// decentralized one — the paper's generalisation claim, which our tests
// exercise directly. The cluster also produces the per-server *benchmark
// slices* used by attack detection: server j's benchmark is slice j of its
// own local gradient (servers are workers too, S ⊂ W).
#pragma once

#include <optional>
#include <vector>

#include "chain/signature.hpp"
#include "fl/gradient.hpp"
#include "fl/worker.hpp"

namespace fifl::fl {

class ServerCluster {
 public:
  /// `members` are worker ids currently acting as servers; slice layout
  /// comes from `plan` (plan.servers() must equal members.size()).
  ServerCluster(std::vector<chain::NodeId> members, SlicePlan plan);

  std::size_t size() const noexcept { return members_.size(); }
  const std::vector<chain::NodeId>& members() const noexcept { return members_; }
  const SlicePlan& plan() const noexcept { return plan_; }
  bool is_server(chain::NodeId id) const noexcept;
  /// Server index (0..M-1) of a member id, if it is one.
  std::optional<std::size_t> server_index(chain::NodeId id) const noexcept;

  /// Benchmark slices for detection: slice j of server j's own upload.
  /// Throws if any member's upload is missing or did not arrive.
  std::vector<std::vector<float>> benchmark_slices(
      std::span<const Upload> uploads) const;

  /// Zero-copy variant: views straight into the server members' upload
  /// gradients — the per-round engine path, which used to copy every
  /// slice into fresh std::vectors each round. Valid only while `uploads`
  /// outlives the views and is not mutated; callers that need the slices
  /// to survive the round copy them.
  std::vector<std::span<const float>> benchmark_views(
      std::span<const Upload> uploads) const;

  /// Whole-gradient benchmark G = Recombine(benchmark slices).
  Gradient benchmark_gradient(std::span<const Upload> uploads) const;

  /// Replace the membership (reputation-based re-selection, Sec. 4.5).
  void reselect(std::vector<chain::NodeId> members);

 private:
  std::vector<chain::NodeId> members_;
  SlicePlan plan_;
};

}  // namespace fifl::fl
