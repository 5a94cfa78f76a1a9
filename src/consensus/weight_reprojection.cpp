#include "consensus/weight_reprojection.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/check.hpp"

namespace snap::consensus {

namespace {

constexpr std::size_t kExcluded = topology::ComponentMap::kExcluded;

/// The §IV-B solve per component: blocks in ascending label order,
/// members compacted in ascending id order, block edges added in
/// graph.edges() order. Singleton blocks and dead or excluded nodes keep
/// identity rows. Each block must be connected over its kept edges (the
/// optimizer refuses disconnected input).
SparseWeightMatrix optimize_per_component(
    const topology::Graph& graph, const std::vector<bool>& alive,
    const std::vector<std::size_t>& labels,
    const std::vector<std::uint8_t>& edge_kept,
    const WeightOptimizerConfig& optimizer) {
  const std::size_t n = graph.node_count();
  const auto member = [&](topology::NodeId i) {
    return (alive.empty() || alive[i]) && labels[i] != kExcluded;
  };
  std::vector<std::vector<topology::NodeId>> blocks;
  std::vector<std::size_t> compact(n, 0);
  for (topology::NodeId i = 0; i < n; ++i) {
    if (!member(i)) continue;
    if (labels[i] >= blocks.size()) blocks.resize(labels[i] + 1);
    compact[i] = blocks[labels[i]].size();
    blocks[labels[i]].push_back(i);
  }
  SparseWeightMatrix w = SparseWeightMatrix::identity(graph);
  const auto& edges = graph.edges();
  for (std::size_t c = 0; c < blocks.size(); ++c) {
    if (blocks[c].size() < 2) continue;  // singleton: identity row stays
    topology::Graph block(blocks[c].size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [u, v] = edges[e];
      if ((edge_kept.empty() || edge_kept[e] != 0) && member(u) &&
          member(v) && labels[u] == c && labels[v] == c) {
        block.add_edge(compact[u], compact[v]);
      }
    }
    w.set_block(blocks[c], select_weight_matrix(block, optimizer).w);
  }
  return w;
}

}  // namespace

SparseWeightMatrix reproject_weight_matrix_sparse(
    const topology::Graph& graph, const std::vector<bool>& alive,
    ReprojectionMethod method, const WeightOptimizerConfig& optimizer) {
  return reproject_weight_matrix_sparse(graph, alive, {}, method, optimizer);
}

SparseWeightMatrix reproject_weight_matrix_sparse(
    const topology::Graph& graph, const std::vector<bool>& alive,
    const std::vector<std::size_t>& labels, ReprojectionMethod method,
    const WeightOptimizerConfig& optimizer,
    const std::vector<std::uint8_t>& edge_kept) {
  const std::size_t n = graph.node_count();
  SNAP_REQUIRE_MSG(alive.empty() || alive.size() == n,
                   "alive mask must have one flag per node");
  SNAP_REQUIRE_MSG(labels.empty() || labels.size() == n,
                   "component labels must have one entry per node");
  SNAP_REQUIRE_MSG(!labels.empty() || alive.empty() ||
                       std::find(alive.begin(), alive.end(), true) !=
                           alive.end(),
                   "cannot re-project with no survivors");

  if (method == ReprojectionMethod::kMetropolis) {
    return SparseWeightMatrix::metropolis_on_survivors(graph, alive, labels,
                                                       edge_kept);
  }
  if (!labels.empty()) {
    return optimize_per_component(graph, alive, labels, edge_kept,
                                  optimizer);
  }
  // Crashes can disconnect the survivor-induced subgraph, and the §IV-B
  // optimizer refuses disconnected input (the SLEM objective is
  // ill-posed there). Label the survivor components and solve one
  // optimization per block — with a connected survivor set this is
  // exactly one solve over the whole survivor subgraph.
  std::vector<std::uint8_t> include(n, 1);
  for (std::size_t i = 0; i < alive.size(); ++i) include[i] = alive[i];
  return optimize_per_component(
      graph, alive, topology::connected_components(graph, include).label,
      edge_kept, optimizer);
}

}  // namespace snap::consensus
