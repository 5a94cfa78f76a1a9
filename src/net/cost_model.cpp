#include "net/cost_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace snap::net {

HopMatrix::HopMatrix(const topology::Graph& graph)
    : HopMatrix(graph, /*require_connected=*/true) {}

HopMatrix::HopMatrix(const topology::Graph& graph, bool require_connected)
    : graph_(graph), rows_(graph.node_count()) {
  if (require_connected) {
    SNAP_REQUIRE_MSG(graph_.is_connected(),
                     "cost model requires a connected topology");
  }
}

const std::vector<std::size_t>& HopMatrix::row_from(
    topology::NodeId source) const {
  std::vector<std::size_t>& row = rows_[source];
  if (row.empty()) {
    const auto distances = graph_.hops_from(source);
    row.resize(distances.size());
    for (std::size_t v = 0; v < distances.size(); ++v) {
      row[v] = distances[v].value_or(kUnreachable);
    }
  }
  return row;
}

std::size_t HopMatrix::hops(topology::NodeId u, topology::NodeId v) const {
  const std::size_t n = graph_.node_count();
  SNAP_REQUIRE(u < n && v < n);
  std::size_t h = kUnreachable;
  if (u == v) {
    h = 0;
  } else if (!rows_[u].empty()) {
    h = rows_[u][v];
  } else if (!rows_[v].empty()) {
    h = rows_[v][u];  // BFS distances are symmetric on an undirected graph
  } else if (graph_.has_edge(u, v)) {
    h = 1;  // peer exchange — the common flow — never triggers a BFS
  } else {
    // Cache receiver-side: parameter-server incast aims every flow at
    // the same hub, so one BFS serves the whole fan-in.
    h = row_from(v)[u];
  }
  SNAP_REQUIRE_MSG(h != kUnreachable,
                   "flow " << u << " -> " << v
                           << " has no route in the current topology");
  return h;
}

void CostTracker::set_hop_matrix(HopMatrix hop_matrix) {
  SNAP_REQUIRE_MSG(hop_matrix.node_count() >= hops_.node_count(),
                   "routing table cannot shrink below the node set");
  hops_ = std::move(hop_matrix);
  iter_inbound_.resize(hops_.node_count(), 0);
  iter_outbound_.resize(hops_.node_count(), 0);
}

void CostTracker::record_flow(topology::NodeId u, topology::NodeId v,
                              std::size_t bytes) {
  const std::size_t h = hops_.hops(u, v);
  total_bytes_ += bytes;
  iter_bytes_ += bytes;
  const std::uint64_t cost =
      static_cast<std::uint64_t>(bytes) * static_cast<std::uint64_t>(h);
  total_cost_ += cost;
  iter_cost_ += cost;
  if (u != v) {
    iter_outbound_[u] += bytes;
    iter_inbound_[v] += bytes;
  }
}

void CostTracker::record_sent(topology::NodeId u, std::uint64_t bytes,
                              std::uint64_t cost) {
  SNAP_REQUIRE(u < iter_outbound_.size());
  total_bytes_ += bytes;
  iter_bytes_ += bytes;
  total_cost_ += cost;
  iter_cost_ += cost;
  iter_outbound_[u] += bytes;
}

void CostTracker::record_received(topology::NodeId v, std::uint64_t bytes) {
  SNAP_REQUIRE(v < iter_inbound_.size());
  iter_inbound_[v] += bytes;
}

IterationTraffic CostTracker::end_iteration() {
  IterationTraffic ended{iter_bytes_, iter_cost_, 0, 0};
  for (const std::uint64_t b : iter_inbound_) {
    ended.max_inbound = std::max(ended.max_inbound, b);
  }
  for (const std::uint64_t b : iter_outbound_) {
    ended.max_outbound = std::max(ended.max_outbound, b);
  }
  iter_bytes_ = 0;
  iter_cost_ = 0;
  iter_inbound_.assign(iter_inbound_.size(), 0);
  iter_outbound_.assign(iter_outbound_.size(), 0);
  return ended;
}

}  // namespace snap::net
