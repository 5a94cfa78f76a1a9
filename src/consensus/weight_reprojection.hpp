// Weight-matrix re-projection under churn.
//
// EXTRA's convergence needs a symmetric doubly-stochastic W supported on
// the topology — and when a node is confirmed crashed, the *effective*
// topology is the alive-induced subgraph. Keeping the old W would make
// every surviving neighbor of the dead node anchor part of its average
// to a frozen iterate forever; re-projecting W onto the surviving
// sparsity pattern and restarting the recursion from the current
// iterates lets SNAP degrade to the reduced topology instead of
// diverging ("the convergence and optimality of iteration (6) has
// nothing to do with the initial parameter values", §IV-C).
//
// The same re-projection serves partitions (one block per component)
// and the topology sparsifier (a kept-edge subset). Dead nodes keep an
// identity row/column, so the full n×n matrix stays symmetric doubly
// stochastic and feasible for the original graph while the alive block
// mixes only over surviving links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "consensus/sparse_weight_matrix.hpp"
#include "consensus/weight_optimizer.hpp"
#include "topology/graph.hpp"

namespace snap::consensus {

/// How the surviving block is re-weighted.
enum class ReprojectionMethod {
  /// Metropolis–Hastings weights over surviving links:
  ///   w_ij = 1 / (1 + max{deg'(i), deg'(j)}),  deg' = alive degree.
  /// Symmetric, doubly stochastic, O(|E|) — the cheap in-run fallback.
  kMetropolis,
  /// Re-run the §IV-B weight optimizer on each surviving component
  /// (select_weight_matrix). Better spectral gap, much more compute.
  kOptimize,
};

/// Re-projects a mixing matrix onto the surviving subgraph of `graph`:
/// the one implementation behind churn, partition and sparsifier epochs.
/// The masks are those of SparseWeightMatrix::metropolis_on_survivors
/// (each optional), and kMetropolis is exactly that builder. kOptimize
/// runs the §IV-B optimizer (select_weight_matrix) once per component
/// of >= 2 nodes, a dense solve in the component's size; without labels
/// the components are those of the alive-induced subgraph. Each must be
/// connected over its kept edges. Singleton components keep identity
/// rows. Without labels at least one node must be alive. The result is
/// symmetric, doubly stochastic and feasible for `graph`.
SparseWeightMatrix reproject_weight_matrix_sparse(
    const topology::Graph& graph, const std::vector<bool>& alive,
    const std::vector<std::size_t>& labels,
    ReprojectionMethod method = ReprojectionMethod::kMetropolis,
    const WeightOptimizerConfig& optimizer = {},
    const std::vector<std::uint8_t>& edge_kept = {});

/// Re-projection without component labels.
SparseWeightMatrix reproject_weight_matrix_sparse(
    const topology::Graph& graph, const std::vector<bool>& alive,
    ReprojectionMethod method = ReprojectionMethod::kMetropolis,
    const WeightOptimizerConfig& optimizer = {});

}  // namespace snap::consensus
