#include "topology/graph.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"

namespace snap::topology {

void Graph::add_edge(NodeId u, NodeId v) {
  SNAP_REQUIRE_MSG(u < node_count() && v < node_count(),
                   "edge (" << u << "," << v << ") out of range for "
                            << node_count() << " nodes");
  SNAP_REQUIRE_MSG(u != v, "self-loop at node " << u);
  SNAP_REQUIRE_MSG(!has_edge(u, v),
                   "duplicate edge (" << u << "," << v << ")");
  // Keep adjacency sorted for deterministic iteration order.
  auto insert_sorted = [](std::vector<NodeId>& list, NodeId value) {
    list.insert(std::lower_bound(list.begin(), list.end(), value), value);
  };
  insert_sorted(adjacency_[u], v);
  insert_sorted(adjacency_[v], u);
  edges_.emplace_back(std::min(u, v), std::max(u, v));
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  SNAP_REQUIRE(u < node_count() && v < node_count());
  const auto& list = adjacency_[u];
  return std::binary_search(list.begin(), list.end(), v);
}

const std::vector<NodeId>& Graph::neighbors(NodeId u) const {
  SNAP_REQUIRE(u < node_count());
  return adjacency_[u];
}

std::size_t Graph::degree(NodeId u) const {
  SNAP_REQUIRE(u < node_count());
  return adjacency_[u].size();
}

double Graph::average_degree() const noexcept {
  if (node_count() == 0) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) /
         static_cast<double>(node_count());
}

bool Graph::is_connected() const {
  if (node_count() == 0) return true;
  const auto hops = hops_from(0);
  return std::all_of(hops.begin(), hops.end(),
                     [](const auto& h) { return h.has_value(); });
}

std::vector<std::optional<std::size_t>> Graph::hops_from(
    NodeId source) const {
  SNAP_REQUIRE(source < node_count());
  std::vector<std::optional<std::size_t>> dist(node_count());
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : adjacency_[u]) {
      if (!dist[v].has_value()) {
        dist[v] = *dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<std::vector<std::optional<std::size_t>>> Graph::all_pairs_hops()
    const {
  std::vector<std::vector<std::optional<std::size_t>>> all;
  all.reserve(node_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    all.push_back(hops_from(u));
  }
  return all;
}

std::size_t Graph::diameter() const {
  SNAP_REQUIRE_MSG(is_connected(), "diameter of a disconnected graph");
  std::size_t best = 0;
  for (NodeId u = 0; u < node_count(); ++u) {
    for (const auto& h : hops_from(u)) {
      best = std::max(best, h.value());
    }
  }
  return best;
}

ComponentMap connected_components(const Graph& graph) {
  return connected_components(graph,
                              std::vector<std::uint8_t>(graph.node_count(), 1));
}

ComponentMap connected_components(const Graph& graph,
                                  const std::vector<std::uint8_t>& include,
                                  std::span<const std::uint8_t> edge_down) {
  const std::size_t n = graph.node_count();
  SNAP_REQUIRE_MSG(include.size() == n,
                   "inclusion mask covers " << include.size()
                                            << " nodes, graph has " << n);
  SNAP_REQUIRE_MSG(edge_down.empty() || edge_down.size() == graph.edge_count(),
                   "edge mask covers " << edge_down.size()
                                       << " edges, graph has "
                                       << graph.edge_count());
  // Union-find whose root is always the component's lowest id (the
  // higher root is linked under the lower), with path halving.
  std::vector<NodeId> root(n);
  for (NodeId i = 0; i < n; ++i) root[i] = i;
  const auto find = [&root](NodeId i) {
    while (root[i] != i) {
      root[i] = root[root[i]];
      i = root[i];
    }
    return i;
  };
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    if (include[u] == 0 || include[v] == 0) continue;
    if (!edge_down.empty() && edge_down[e] != 0) continue;
    const NodeId ru = find(u);
    const NodeId rv = find(v);
    if (ru < rv) {
      root[rv] = ru;
    } else {
      root[ru] = rv;
    }
  }
  // A root is its component's lowest member, so the id-order scan meets
  // it first and numbers the components by their lowest member.
  ComponentMap map;
  map.label.assign(n, ComponentMap::kExcluded);
  std::vector<std::size_t> size;
  for (NodeId i = 0; i < n; ++i) {
    if (include[i] == 0) continue;
    const NodeId r = find(i);
    if (r == i) {
      map.label[i] = map.count++;
      size.push_back(0);
    } else {
      map.label[i] = map.label[r];
    }
    map.largest_size = std::max(map.largest_size, ++size[map.label[i]]);
  }
  return map;
}

}  // namespace snap::topology
