// Test-only reference: the original straggler / link-failure model
// (paper §IV-D, Fig. 9). net::FaultInjector's memoryless plan replays
// its draws bitwise; net_fault_injector_test pins that against this
// class.
//
// The paper models stragglers as links that are "temporarily unavailable
// due to failure or congestion": a node that misses an update from a
// neighbor simply reuses the last values it received. We model this as a
// per-round Bernoulli draw over undirected links — when a link is down
// for a round, frames in both directions are lost for that round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "common/rng.hpp"
#include "topology/graph.hpp"

namespace snap::oracle {

class LinkFailureModel {
 public:
  /// `failure_probability` is the chance an individual link is down in
  /// any given round (clamped to [0, 1]).
  LinkFailureModel(const topology::Graph& graph, double failure_probability,
                   common::Rng rng);

  /// Re-samples which links are down for the next round.
  void advance_round();

  /// True when the link {u, v} is unavailable in the current round.
  /// Non-adjacent pairs are never "up" in a meaningful sense; querying
  /// them returns false (no link, nothing to fail).
  bool is_down(topology::NodeId u, topology::NodeId v) const;

  /// Number of links down in the current round.
  std::size_t down_count() const noexcept { return down_.size(); }

  double failure_probability() const noexcept { return probability_; }

 private:
  const topology::Graph* graph_;
  double probability_;
  common::Rng rng_;
  std::unordered_set<std::uint64_t> down_;
};

}  // namespace snap::oracle
