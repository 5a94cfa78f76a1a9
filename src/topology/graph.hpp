// Undirected edge-server topology.
//
// In SNAP's system model (paper §II-B) each vertex is an edge server and
// each edge is a one-hop connection; the neighbor set B_i of server i is
// exactly its adjacency. The graph also provides BFS hop counts, which
// the communication-cost model uses to charge multi-hop flows
// (parameter-server traffic crosses h physical hops and costs h× the
// flow size).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace snap::topology {

using NodeId = std::size_t;

/// Simple undirected graph with adjacency lists and an edge list.
class Graph {
 public:
  Graph() = default;

  /// Graph with n isolated vertices.
  explicit Graph(std::size_t n) : adjacency_(n) {}

  std::size_t node_count() const noexcept { return adjacency_.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Adds the undirected edge {u, v}. Self-loops and duplicate edges are
  /// rejected (checked precondition).
  void add_edge(NodeId u, NodeId v);

  /// True when {u, v} is an edge.
  bool has_edge(NodeId u, NodeId v) const;

  /// Neighbor set B_u, sorted ascending.
  const std::vector<NodeId>& neighbors(NodeId u) const;

  /// Node degree |B_u|.
  std::size_t degree(NodeId u) const;

  /// Mean node degree, 2|E|/|V| (0 for the empty graph).
  double average_degree() const noexcept;

  /// All edges as (u, v) pairs with u < v.
  const std::vector<std::pair<NodeId, NodeId>>& edges() const noexcept {
    return edges_;
  }

  /// True when every vertex can reach every other vertex.
  bool is_connected() const;

  /// BFS hop counts from `source`; unreachable nodes are nullopt.
  std::vector<std::optional<std::size_t>> hops_from(NodeId source) const;

  /// All-pairs hop counts via per-source BFS. hops[u][v] is nullopt when
  /// v is unreachable from u.
  std::vector<std::vector<std::optional<std::size_t>>> all_pairs_hops() const;

  /// Largest finite shortest-path distance (requires connected graph).
  std::size_t diameter() const;

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// The connected components of an (optionally masked) graph. Labels are
/// assigned in ascending order of each component's lowest member id, so
/// the labeling is a pure function of the graph + masks: component 0
/// contains the lowest included node, component 1 the lowest included
/// node not in component 0, and so on. Excluded nodes carry kExcluded.
struct ComponentMap {
  /// Label for nodes outside the inclusion mask.
  static constexpr std::size_t kExcluded = static_cast<std::size_t>(-1);

  std::vector<std::size_t> label;  ///< per-node component label
  std::size_t count = 0;           ///< number of components
  std::size_t largest_size = 0;    ///< size of the largest component

  /// Fraction of *included* nodes in the largest component (1.0 when
  /// nothing is included — an empty membership is trivially whole).
  double largest_fraction() const noexcept {
    std::size_t included = 0;
    for (const std::size_t l : label) {
      if (l != kExcluded) ++included;
    }
    if (included == 0) return 1.0;
    return static_cast<double>(largest_size) /
           static_cast<double>(included);
  }

  /// True when `u` and `v` are both included and in the same component.
  bool same_component(NodeId u, NodeId v) const noexcept {
    return u < label.size() && v < label.size() &&
           label[u] != kExcluded && label[u] == label[v];
  }
};

/// Components of the full graph (every node included, every edge up).
ComponentMap connected_components(const Graph& graph);

/// Components of the *effective* graph: only nodes with include[u] != 0
/// participate, and edge e (edges()[e]) is traversable only when both
/// endpoints are included and edge_down is empty or edge_down[e] == 0.
/// One pass over edges() in id order unions the endpoints of every
/// traversable edge, so the cost is O(n + m) with sequential reads.
ComponentMap connected_components(
    const Graph& graph, const std::vector<std::uint8_t>& include,
    std::span<const std::uint8_t> edge_down = {});

}  // namespace snap::topology
