#include "oracle/dense_mixing.hpp"

#include <algorithm>
#include <cstddef>

#include "common/check.hpp"

namespace snap::oracle {

using consensus::ReprojectionMethod;
using consensus::WeightOptimizerConfig;

constexpr std::size_t kExcluded = topology::ComponentMap::kExcluded;

linalg::Matrix metropolis_weights(const topology::Graph& graph,
                                  const std::vector<bool>& alive,
                                  const std::vector<std::size_t>& labels) {
  const std::size_t n = graph.node_count();
  const auto effective = [&](topology::NodeId i) {
    return alive[i] && (labels.empty() || labels[i] != kExcluded);
  };
  const auto same_block = [&](topology::NodeId i, topology::NodeId j) {
    return labels.empty() || labels[i] == labels[j];
  };
  std::vector<std::size_t> alive_degree(n, 0);
  for (const auto& [u, v] : graph.edges()) {
    if (effective(u) && effective(v) && same_block(u, v)) {
      ++alive_degree[u];
      ++alive_degree[v];
    }
  }
  linalg::Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!effective(i)) {
      w(i, i) = 1.0;
      continue;
    }
    double off_diagonal = 0.0;
    for (const topology::NodeId j : graph.neighbors(i)) {
      if (!effective(j) || !same_block(i, j)) continue;
      const double weight =
          1.0 / (1.0 + static_cast<double>(
                           std::max(alive_degree[i], alive_degree[j])));
      w(i, j) = weight;
      off_diagonal += weight;
    }
    w(i, i) = 1.0 - off_diagonal;
  }
  return w;
}

linalg::Matrix reproject_weight_matrix(
    const topology::Graph& graph, const std::vector<bool>& alive,
    const std::vector<std::size_t>& labels, ReprojectionMethod method,
    const WeightOptimizerConfig& optimizer) {
  const std::size_t n = graph.node_count();
  SNAP_REQUIRE(alive.size() == n && labels.size() == n);
  if (method == ReprojectionMethod::kMetropolis) {
    return metropolis_weights(graph, alive, labels);
  }
  linalg::Matrix w = linalg::Matrix::identity(n);
  for (std::size_t c = 0; c < n; ++c) {  // component labels are < n
    std::vector<std::size_t> compact(n, 0);
    std::vector<topology::NodeId> expand;
    for (std::size_t i = 0; i < n; ++i) {
      if (alive[i] && labels[i] == c) {
        compact[i] = expand.size();
        expand.push_back(i);
      }
    }
    if (expand.size() < 2) continue;  // singleton: identity row stays
    topology::Graph block(expand.size());
    for (const auto& [u, v] : graph.edges()) {
      if (alive[u] && alive[v] && labels[u] == c && labels[v] == c) {
        block.add_edge(compact[u], compact[v]);
      }
    }
    const linalg::Matrix solved =
        consensus::select_weight_matrix(block, optimizer).w;
    for (std::size_t a = 0; a < expand.size(); ++a) {
      for (std::size_t b = 0; b < expand.size(); ++b) {
        w(expand[a], expand[b]) = solved(a, b);
      }
    }
  }
  return w;
}

linalg::Matrix activated_mixing_matrix(
    std::size_t node_count,
    std::span<const std::pair<topology::NodeId, topology::NodeId>> links,
    const std::vector<bool>& alive) {
  SNAP_REQUIRE(node_count > 0);
  SNAP_REQUIRE(alive.empty() || alive.size() == node_count);
  const auto is_alive = [&](topology::NodeId i) {
    return alive.empty() || alive[i];
  };
  std::vector<std::size_t> degree(node_count, 0);
  for (const auto& [u, v] : links) {
    SNAP_REQUIRE(u < node_count && v < node_count && u != v);
    if (!is_alive(u) || !is_alive(v)) continue;
    ++degree[u];
    ++degree[v];
  }
  linalg::Matrix w = linalg::Matrix::identity(node_count);
  for (const auto& [u, v] : links) {
    if (!is_alive(u) || !is_alive(v)) continue;
    const double weight =
        1.0 / (1.0 + static_cast<double>(std::max(degree[u], degree[v])));
    w(u, v) += weight;
    w(v, u) += weight;
    w(u, u) -= weight;
    w(v, v) -= weight;
  }
  return w;
}

}  // namespace snap::oracle
