#include "consensus/sparse_weight_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "common/check.hpp"

namespace snap::consensus {

SparseWeightMatrix SparseWeightMatrix::pattern_of(
    const topology::Graph& graph) {
  const std::size_t n = graph.node_count();
  SparseWeightMatrix w;
  w.row_ptr_.resize(n + 1, 0);
  for (topology::NodeId i = 0; i < n; ++i) {
    w.row_ptr_[i + 1] = w.row_ptr_[i] + graph.degree(i) + 1;
  }
  w.cols_.resize(w.row_ptr_[n]);
  w.values_.assign(w.row_ptr_[n], 0.0);
  w.diag_.resize(n);
  for (topology::NodeId i = 0; i < n; ++i) {
    // Merge the diagonal into the sorted neighbor list.
    std::size_t at = w.row_ptr_[i];
    bool placed = false;
    for (const topology::NodeId j : graph.neighbors(i)) {
      if (!placed && i < j) {
        w.diag_[i] = at;
        w.cols_[at++] = i;
        placed = true;
      }
      w.cols_[at++] = j;
    }
    if (!placed) {
      w.diag_[i] = at;
      w.cols_[at++] = i;
    }
    SNAP_ASSERT(at == w.row_ptr_[i + 1]);
  }
  return w;
}

SparseWeightMatrix SparseWeightMatrix::max_degree(
    const topology::Graph& graph, double epsilon) {
  SNAP_REQUIRE(epsilon > 0.0);
  SparseWeightMatrix w = pattern_of(graph);
  const std::size_t n = graph.node_count();
  for (topology::NodeId i = 0; i < n; ++i) {
    // Same arithmetic as the dense builder: per-edge weight from the
    // max endpoint degree, diagonal = 1 − Σ over ascending neighbors
    // (the dense row scan adds only +0.0 outside the support, which is
    // exact on the positive partial sums).
    double off = 0.0;
    for (std::size_t k = w.row_ptr_[i]; k < w.row_ptr_[i + 1]; ++k) {
      const topology::NodeId j = w.cols_[k];
      if (j == i) continue;
      const double denom =
          static_cast<double>(std::max(graph.degree(i), graph.degree(j))) +
          epsilon;
      w.values_[k] = 1.0 / denom;
      off += w.values_[k];
    }
    w.values_[w.diag_[i]] = 1.0 - off;
  }
  SNAP_ENSURE(w.is_doubly_stochastic(1e-9));
  return w;
}

SparseWeightMatrix SparseWeightMatrix::identity(
    const topology::Graph& graph) {
  SparseWeightMatrix w = pattern_of(graph);
  for (const std::size_t d : w.diag_) w.values_[d] = 1.0;
  return w;
}

SparseWeightMatrix SparseWeightMatrix::metropolis_on_survivors(
    const topology::Graph& graph, const std::vector<bool>& alive,
    const std::vector<std::size_t>& labels,
    const std::vector<std::uint8_t>& edge_kept) {
  const std::size_t n = graph.node_count();
  SNAP_REQUIRE_MSG(alive.empty() || alive.size() == n,
                   "alive mask size must match the node count");
  SNAP_REQUIRE_MSG(labels.empty() || labels.size() == n,
                   "component labels must have one entry per node");
  SNAP_REQUIRE_MSG(
      edge_kept.empty() || edge_kept.size() == graph.edge_count(),
      "edge_kept must have one entry per edge");
  constexpr std::size_t kEx = topology::ComponentMap::kExcluded;
  const auto effective = [&](topology::NodeId i) {
    return (alive.empty() || alive[i]) && (labels.empty() || labels[i] != kEx);
  };
  const auto same_block = [&](topology::NodeId i, topology::NodeId j) {
    return labels.empty() || labels[i] == labels[j];
  };
  // Each mask only removes terms: a node's row walks its ascending
  // neighbors and skips every link a mask drops, so adding a mask never
  // reorders the surviving additions.
  std::unordered_set<std::uint64_t> dropped;
  const auto& edges = graph.edges();
  std::vector<std::size_t> alive_degree(n, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    if (!edge_kept.empty() && edge_kept[e] == 0) {
      dropped.insert((static_cast<std::uint64_t>(v) << 32) |
                     static_cast<std::uint64_t>(u));
      continue;
    }
    if (effective(u) && effective(v) && same_block(u, v)) {
      ++alive_degree[u];
      ++alive_degree[v];
    }
  }
  const auto is_dropped = [&](topology::NodeId i, topology::NodeId j) {
    const auto lo = static_cast<std::uint64_t>(std::min(i, j));
    const auto hi = static_cast<std::uint64_t>(std::max(i, j));
    return !dropped.empty() && dropped.contains((hi << 32) | lo);
  };

  SparseWeightMatrix w = pattern_of(graph);
  for (topology::NodeId i = 0; i < n; ++i) {
    if (!effective(i)) {
      w.values_[w.diag_[i]] = 1.0;  // identity row, zero link weights
      continue;
    }
    double off = 0.0;
    for (std::size_t k = w.row_ptr_[i]; k < w.row_ptr_[i + 1]; ++k) {
      const topology::NodeId j = w.cols_[k];
      if (j == i || !effective(j) || !same_block(i, j) || is_dropped(i, j)) {
        continue;
      }
      const double weight =
          1.0 / (1.0 + static_cast<double>(
                           std::max(alive_degree[i], alive_degree[j])));
      w.values_[k] = weight;
      off += weight;
    }
    w.values_[w.diag_[i]] = 1.0 - off;
  }
  return w;
}

SparseWeightMatrix SparseWeightMatrix::from_dense(
    const linalg::Matrix& w, const topology::Graph& graph) {
  SNAP_REQUIRE_MSG(w.rows() == graph.node_count() && w.is_square(),
                   "dense matrix shape does not match the graph");
  SparseWeightMatrix out = pattern_of(graph);
  for (topology::NodeId i = 0; i < graph.node_count(); ++i) {
    for (std::size_t k = out.row_ptr_[i]; k < out.row_ptr_[i + 1]; ++k) {
      out.values_[k] = w(i, out.cols_[k]);
    }
  }
  return out;
}

void SparseWeightMatrix::set_block(
    std::span<const topology::NodeId> members, const linalg::Matrix& block) {
  SNAP_REQUIRE_MSG(block.rows() == members.size() && block.is_square(),
                   "block shape does not match its member list");
  for (std::size_t a = 0; a < members.size(); ++a) {
    const topology::NodeId i = members[a];
    SNAP_REQUIRE(i < node_count());
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const auto it =
          std::lower_bound(members.begin(), members.end(), cols_[k]);
      values_[k] = it != members.end() && *it == cols_[k]
                       ? block(a, static_cast<std::size_t>(
                                      it - members.begin()))
                       : 0.0;
    }
  }
}

SparseWeightMatrix::RowView SparseWeightMatrix::row(
    topology::NodeId i) const {
  SNAP_REQUIRE(i < node_count());
  const std::size_t from = row_ptr_[i];
  const std::size_t count = row_ptr_[i + 1] - from;
  return {{cols_.data() + from, count}, {values_.data() + from, count}};
}

double SparseWeightMatrix::diagonal(topology::NodeId i) const {
  SNAP_REQUIRE(i < node_count());
  return values_[diag_[i]];
}

double SparseWeightMatrix::entry(topology::NodeId i,
                                 topology::NodeId j) const {
  SNAP_REQUIRE(i < node_count() && j < node_count());
  const auto begin =
      cols_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
  const auto end =
      cols_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(it - cols_.begin())];
}

void SparseWeightMatrix::accumulate_matvec(std::span<const double> x,
                                           std::span<double> y) const {
  const std::size_t n = node_count();
  SNAP_REQUIRE(x.size() == n && y.size() == n);
  for (topology::NodeId i = 0; i < n; ++i) {
    double acc = y[i];
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      acc += values_[k] * x[cols_[k]];
    }
    y[i] = acc;
  }
}

linalg::Matrix SparseWeightMatrix::to_dense() const {
  const std::size_t n = node_count();
  linalg::Matrix out(n, n);
  for (topology::NodeId i = 0; i < n; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      out(i, cols_[k]) = values_[k];
    }
  }
  return out;
}

bool SparseWeightMatrix::is_symmetric(double tol) const {
  for (topology::NodeId i = 0; i < node_count(); ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const topology::NodeId j = cols_[k];
      if (j <= i) continue;  // check each unordered pair once
      if (std::abs(values_[k] - entry(j, i)) > tol) return false;
    }
  }
  return true;
}

bool SparseWeightMatrix::is_doubly_stochastic(double tol) const {
  const std::size_t n = node_count();
  std::vector<double> col_sum(n, 0.0);
  for (topology::NodeId i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const double value = values_[k];
      if (value < -tol) return false;
      row_sum += value;
      col_sum[cols_[k]] += value;
    }
    if (std::abs(row_sum - 1.0) > tol) return false;
  }
  for (const double sum : col_sum) {
    if (std::abs(sum - 1.0) > tol) return false;
  }
  return true;
}

bool is_feasible_weight_matrix(const SparseWeightMatrix& w,
                               const topology::Graph& graph, double tol) {
  const std::size_t n = graph.node_count();
  if (w.node_count() != n) return false;
  if (!w.is_symmetric(tol)) return false;
  if (!w.is_doubly_stochastic(tol)) return false;
  // Support check: every stored column must be the diagonal or a graph
  // neighbor, whatever its value. A stored zero off the graph would
  // become a neighbor slot the graph never has, and a trainer's rows
  // (hence its nodes' neighbor lists) must stay inside the graph so a
  // re-projection onto it can only add neighbors. from_dense of an
  // infeasible matrix cannot smuggle mass outside the pattern (it is
  // dropped), so the stochasticity checks above catch it.
  for (topology::NodeId i = 0; i < n; ++i) {
    for (const topology::NodeId j : w.row(i).cols) {
      if (j != i && !graph.has_edge(i, j)) return false;
    }
  }
  return true;
}

}  // namespace snap::consensus
