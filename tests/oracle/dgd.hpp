// Decentralized gradient descent (DGD) — the classic consensus-
// optimization baseline EXTRA improves on.
//
//     xᵏ⁺¹ = W xᵏ − α ∇f(xᵏ)
//
// With a constant step size DGD converges only to an O(α)-neighborhood
// of the optimum (its fixed point balances the gradient against the
// consensus pull), whereas EXTRA's corrected recursion is exact. This
// class exists as the reference point for that comparison — it is the
// quantitative justification for the paper building SNAP on EXTRA
// rather than on plain DGD (§IV-A), and tests/core_dgd_test measures
// the gap. Test-only: nothing under src/ links it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace snap::common {
class ByteWriter;
class ByteReader;
}  // namespace snap::common

namespace snap::runtime {
template <typename Payload>
class SyncFabric;
}  // namespace snap::runtime

namespace snap::oracle {

class DgdIteration {
 public:
  using GradientFn =
      std::function<linalg::Vector(std::size_t node, const linalg::Vector&)>;

  /// `w` must be symmetric doubly stochastic; one row of `initial` per
  /// node; `alpha` is the (constant) step size. `threads` parallelizes
  /// the per-node mixing/gradient work (0 = hardware concurrency);
  /// iterates are bitwise identical for every value — `gradient` must
  /// be safe to call concurrently for distinct nodes.
  DgdIteration(linalg::Matrix w, std::vector<linalg::Vector> initial,
               double alpha, GradientFn gradient, std::size_t threads = 1);
  ~DgdIteration();
  DgdIteration(DgdIteration&&) noexcept;
  DgdIteration& operator=(DgdIteration&&) noexcept;

  /// Replaces the mixing matrix mid-run — the caller-driven membership
  /// epoch (elastic membership grows/shrinks W by re-projection; DGD has
  /// no recursion state to restart, so swapping W is the whole story).
  /// Same feasibility contract as the constructor; the node count must
  /// not change (absent nodes carry identity rows).
  void set_weight_matrix(linalg::Matrix w);

  /// Overwrites one node's iterate — the warm-start half of a membership
  /// epoch (a joiner adopts a live neighbor's parameters before its
  /// first mixed round).
  void set_params(std::size_t node, linalg::Vector x);

  /// Advances one DGD iteration.
  void step();

  /// Serializes the evolving state (iterates + iteration counter) for
  /// round-aligned checkpoints. The mixing matrix, step size and
  /// gradient oracle are construction inputs the caller recreates
  /// before load(); DGD's recursion is memoryless beyond the current
  /// iterate, so this is the whole story.
  void save(common::ByteWriter& writer) const;
  /// Restores state saved by save() into an object built with the same
  /// node count and dimension. Returns false on truncation or a shape
  /// mismatch, leaving the iterates unspecified.
  bool load(common::ByteReader& reader);

  std::size_t iteration() const noexcept { return iteration_; }
  const linalg::Vector& params(std::size_t node) const;
  linalg::Vector mean_params() const;
  double consensus_residual() const;
  std::size_t node_count() const noexcept { return current_.size(); }

 private:
  common::ThreadPool& pool() const noexcept;

  linalg::Matrix w_;
  double alpha_;
  GradientFn gradient_;
  std::vector<linalg::Vector> current_;
  std::vector<linalg::Vector> next_;       // mix-phase staging
  std::vector<linalg::Vector> gradients_;  // local-update staging
  /// The shared-clock execution engine: one step() = one fabric round
  /// (message exchange over the full W support). Heap-held to keep the
  /// class movable.
  std::unique_ptr<runtime::SyncFabric<const linalg::Vector*>> fabric_;
  std::size_t iteration_ = 0;
};

}  // namespace snap::oracle
