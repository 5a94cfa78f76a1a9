// Adjacency-sparse (CSR) mixing matrices.
//
// A feasible mixing matrix is supported on {self} ∪ neighbors, so at
// edge scale it has O(|E|) nonzeros, not O(n²). SparseWeightMatrix
// stores exactly that pattern in CSR form — row i holds the index-sorted
// columns {i} ∪ B_i with their weights, *including structural zeros* on
// non-activated links — so a SnapNode's weight row is one contiguous
// span aligned with its sorted neighbor list, and every builder is
// O(|V| + |E|).
//
// One Metropolis kernel (metropolis_on_survivors) builds every in-run W
// that is not the §IV-B optimizer's: churn, partitions and the topology
// sparsifier each pass it a mask. Its additions run in the order the
// dense reference builders in tests/oracle/ use, so to_dense() of a
// sparse W is bitwise the dense matrix; to_dense()/from_dense() convert
// losslessly over the support.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "topology/graph.hpp"

namespace snap::consensus {

class SparseWeightMatrix {
 public:
  SparseWeightMatrix() = default;

  /// One row's nonzero pattern: index-sorted columns (always containing
  /// the diagonal) and their aligned weights.
  struct RowView {
    std::span<const topology::NodeId> cols;
    std::span<const double> values;
  };

  /// Max-degree weights, paper eq. (24): the same doubles, in the same
  /// order, as the dense max_degree_weights.
  static SparseWeightMatrix max_degree(const topology::Graph& graph,
                                       double epsilon = 0.01);

  /// Every node carries an identity row: the scaffold the per-component
  /// §IV-B re-projection fills with set_block.
  static SparseWeightMatrix identity(const topology::Graph& graph);

  /// The one Metropolis–Hastings builder behind every in-run W rebuild:
  ///   w_ij = 1 / (1 + max{deg'(i), deg'(j)})
  /// over the links that survive three masks, each optional (empty means
  /// "no restriction"):
  ///   - `alive`: one flag per node; both endpoints must be alive;
  ///   - `labels`: one component label per node; both endpoints must
  ///     share a label other than ComponentMap::kExcluded, so W is
  ///     block-diagonal over the components (churn and partitions);
  ///   - `edge_kept`: one flag per graph.edges() entry; the link itself
  ///     must be kept (the topology sparsifier's pruned set).
  /// deg' counts surviving links. Nodes that are dead or excluded get
  /// identity rows. Dropped links keep their structural-zero slots, so
  /// rows stay aligned with the full graph's neighbor lists.
  static SparseWeightMatrix metropolis_on_survivors(
      const topology::Graph& graph, const std::vector<bool>& alive = {},
      const std::vector<std::size_t>& labels = {},
      const std::vector<std::uint8_t>& edge_kept = {});

  /// Restriction of a dense feasible matrix onto the graph's support.
  /// Entries outside {self} ∪ neighbors are dropped — callers validate
  /// feasibility (which bounds those entries by tol) beforehand.
  static SparseWeightMatrix from_dense(const linalg::Matrix& w,
                                       const topology::Graph& graph);

  /// Overwrites the rows of `members` (ascending node ids) with the
  /// dense block `block`, where block(a, b) weighs members[a] against
  /// members[b]. Pattern slots of those rows outside the block become 0:
  /// from_dense restricted to one diagonal block.
  void set_block(std::span<const topology::NodeId> members,
                 const linalg::Matrix& block);

  std::size_t node_count() const noexcept {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  std::size_t nonzero_count() const noexcept { return values_.size(); }

  RowView row(topology::NodeId i) const;

  /// Weight at (i, i).
  double diagonal(topology::NodeId i) const;

  /// Weight at (i, j); 0 outside the stored pattern.
  double entry(topology::NodeId i, topology::NodeId j) const;

  /// y += W x over the stored pattern (y is NOT zeroed — callers that
  /// want y = Wx pass a zeroed y). Row-major, ascending columns:
  /// deterministic accumulation order.
  void accumulate_matvec(std::span<const double> x,
                         std::span<double> y) const;

  linalg::Matrix to_dense() const;

  /// |w_ij − w_ji| ≤ tol over the pattern (pattern itself is symmetric
  /// for every builder).
  bool is_symmetric(double tol = 1e-12) const;

  /// Every row and column sums to 1 within tol. O(nnz).
  bool is_doubly_stochastic(double tol = 1e-9) const;

 private:
  /// Pattern {i} ∪ neighbors(i) per row, zero values, diag_ filled.
  static SparseWeightMatrix pattern_of(const topology::Graph& graph);

  std::vector<std::size_t> row_ptr_;
  std::vector<topology::NodeId> cols_;
  std::vector<double> values_;
  std::vector<std::size_t> diag_;  ///< index into values_ of (i, i)
};

/// Sparse twin of is_feasible_weight_matrix: right shape, symmetric,
/// doubly stochastic, and supported on {self} ∪ neighbors — a stored
/// off-diagonal column that is not a graph edge fails even when its
/// value is zero. O(|E|).
bool is_feasible_weight_matrix(const SparseWeightMatrix& w,
                               const topology::Graph& graph,
                               double tol = 1e-8);

}  // namespace snap::consensus
