#include "oracle/link_failure.hpp"

#include <algorithm>

#include "net/fault_injector.hpp"

namespace snap::oracle {

LinkFailureModel::LinkFailureModel(const topology::Graph& graph,
                                   double failure_probability,
                                   common::Rng rng)
    : graph_(&graph),
      probability_(std::clamp(failure_probability, 0.0, 1.0)),
      rng_(rng) {
  advance_round();
}

void LinkFailureModel::advance_round() {
  down_.clear();
  if (probability_ <= 0.0) return;
  for (const auto& [u, v] : graph_->edges()) {
    if (rng_.bernoulli(probability_)) {
      down_.insert(net::FaultInjector::link_key(u, v));
    }
  }
}

bool LinkFailureModel::is_down(topology::NodeId u,
                               topology::NodeId v) const {
  return down_.contains(net::FaultInjector::link_key(u, v));
}

}  // namespace snap::oracle
