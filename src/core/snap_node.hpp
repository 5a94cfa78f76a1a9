// Per-edge-server state and update rule (paper eq. (8)).
//
// A SnapNode owns one copy of the model parameters, its local data
// shard, and its *views* of each neighbor's parameters — the values it
// most recently received, which may be stale (filtered updates,
// stragglers). Each iteration it:
//   1. computes the EXTRA update from its own exact history and the
//      neighbor views (compute_update = compute_gradient, the model
//      call, then extra_step, the recursion),
//   2. decides which parameters to transmit by comparing its new
//      parameters against the values it last advertised
//      (collect_updates), and
//   3. folds incoming frames into its views (advance_views /
//      apply_update).
// The "advertised" bookkeeping makes the withheld error per parameter
// at most the current threshold regardless of how many iterations it
// has been withheld — a slightly stronger guarantee than per-iteration
// deltas, with identical traffic behaviour (see DESIGN.md).
//
// Storage is structure-of-arrays: the mixing row lives in an aligned
// weight array over the index-sorted neighbor list (one CSR row view),
// and neighbor views/freshness live in contiguous per-slot slabs —
// compute_update walks flat arrays instead of chasing hash buckets, so
// ThreadPool sweeps over nodes stay cache-friendly at 10⁴–10⁵ nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.hpp"
#include "data/dataset.hpp"
#include "linalg/vector.hpp"
#include "ml/model.hpp"
#include "net/frame.hpp"
#include "topology/graph.hpp"

namespace snap::core {

/// How a node treats a neighbor whose round update never arrived
/// (paper §IV-D stragglers).
enum class StragglerPolicy {
  /// Fold the absent neighbor's mixing weight into the node's own value
  /// for this round — the neighbor is dropped from the average, and the
  /// round's effective mixing matrix stays (symmetric) doubly
  /// stochastic. This matches the paper's dropout intuition and keeps
  /// EXTRA's error floor proportional to the *dropout rate*, not to the
  /// staleness of old values. Default.
  kReweight,
  /// Use the last received values in place of the missing update — the
  /// paper's literal text ("leverage the latest parameter updates").
  /// Stale anchors perturb EXTRA's telescoped invariant, so heavy
  /// failure rates cost noticeably more accuracy under this policy (see
  /// the straggler ablation bench).
  kStaleValues,
};

/// Which parameters a node transmits each iteration.
enum class FilterMode {
  kApe,          ///< SNAP: APE-controlled threshold (Algorithm 1)
  kExactChange,  ///< SNAP-0: drop only parameters with zero change
  kSendAll,      ///< SNO: every parameter, every iteration
};

class SnapNode {
 public:
  /// The node's row of the mixing matrix W, restricted to {self} ∪
  /// neighbors (all other entries are zero), as a CSR row view with the
  /// diagonal split out: `neighbors` must be index-sorted,
  /// `neighbor_weights[s]` is the weight of `neighbors[s]`, and the row
  /// must sum to 1. The W̃ row is derived internally as (w + 1{j==i})/2.
  SnapNode(topology::NodeId id, const ml::Model& model,
           data::Dataset shard, std::vector<topology::NodeId> neighbors,
           std::vector<double> neighbor_weights, double self_weight,
           StragglerPolicy straggler_policy = StragglerPolicy::kReweight);

  /// Installs x⁰ and primes views/advertised values. All nodes must be
  /// seeded with the same x⁰ (they are in SNAP: a shared initial model),
  /// so initial views are exact without a broadcast round.
  void set_initial(const linalg::Vector& x0);

  /// One entry of a sparse mixing row: a neighbor and its weight.
  struct RowEntry {
    topology::NodeId neighbor = 0;
    double weight = 0.0;
  };

  /// Replaces this node's mixing-matrix row mid-run with a sparse one
  /// (a gossip tick's Metropolis row), written into the node's own
  /// storage: every neighbor weight is zero but the entries', each added
  /// in order, and the self weight is 1 minus the entries' weights,
  /// subtracted in order. Each entry must name a current neighbor.
  /// Views, iterate history, and advertised values are untouched.
  void set_weight_row(std::span<const RowEntry> entries);

  /// Replaces the neighbor set *and* the mixing row together — the
  /// membership-epoch re-projection, also used when a join attaches new
  /// edges. `neighbors` must be sorted, `neighbor_weights` aligned
  /// with it, and it must contain every current neighbor: a neighbor
  /// list only grows (every W the trainer builds keeps dead, pruned and
  /// cross-component neighbors as structural zeros). Existing views
  /// (and their freshness) survive; a brand-new neighbor's view is
  /// primed to this node's own iterate and marked stale, so under
  /// kReweight it contributes nothing until its first real frame lands.
  /// Pair with restart().
  void set_topology(std::vector<topology::NodeId> neighbors,
                    std::vector<double> neighbor_weights,
                    double self_weight);

  /// Warm start from a neighbor's STATE_SYNC handoff: installs `x` as
  /// both the current and previous iterate and restarts the EXTRA
  /// recursion from it (§IV-C licenses restarting from arbitrary
  /// iterates). The advertised baseline is deliberately left at its old
  /// values: the adopted parameters differ from it nearly everywhere,
  /// so the next collect_updates re-advertises (almost) the full
  /// vector and corrects every neighbor's view of this node.
  void adopt_params(const linalg::Vector& x);

  /// Advances the local iterate one EXTRA step (eq. (8)) using the
  /// current neighbor views. `alpha` is the step size. Exactly
  /// compute_gradient() followed by extra_step(alpha).
  void compute_update(double alpha) {
    compute_gradient();
    extra_step(alpha);
  }

  /// The model half of compute_update: ∇f_i at the current iterate,
  /// written into gradient_row().
  void compute_gradient();

  /// This round's gradient buffer (param_count doubles): what
  /// compute_gradient writes, or where a process that does not compute
  /// this node adopts the owner's row from the wire. extra_step swaps it
  /// with the stored previous gradient and recycles the retired one, so
  /// a steady-state round allocates nothing.
  std::span<double> gradient_row();

  /// The EXTRA half of compute_update: the recursion of eq. (8),
  /// consuming gradient_row(). Call once per compute_gradient (or
  /// adopted row).
  void extra_step(double alpha);

  /// Restarts the EXTRA recursion from the current iterate: the next
  /// compute_update performs a fresh first step (x¹ = Wx⁰ − α∇f) with
  /// the current parameters as x⁰. Views and advertised values are
  /// kept. Exposed for ablations; the production trainer does NOT
  /// restart at APE stage boundaries — the first EXTRA step moves by
  /// the full local gradient α∇f_i (nonzero even at the consensual
  /// optimum), so a restart near convergence re-injects error.
  void restart() noexcept { iteration_ = 0; }

  struct Outgoing {
    /// Parameters to transmit (sorted by index).
    std::vector<net::ParamUpdate> updates;
    /// Largest |change| among *withheld* parameters (APE bookkeeping).
    double max_withheld = 0.0;
  };

  /// Selects parameters whose |x − advertised| meets the mode/threshold,
  /// marks them advertised, and returns them. `threshold` only applies
  /// to kApe mode.
  Outgoing collect_updates(FilterMode mode, double threshold);

  /// Allocation-free form: replaces the contents of `updates` with the
  /// selected parameters (sorted by index, so a caller can reuse one
  /// buffer across rounds) and returns Outgoing::max_withheld.
  double collect_updates(FilterMode mode, double threshold,
                         std::vector<net::ParamUpdate>& updates);

  /// Shifts every neighbor view one iteration back (x̂ᵏ becomes the
  /// "previous" view) and marks every neighbor stale until a frame
  /// (possibly an empty heartbeat) arrives. Call once per round before
  /// apply_update.
  void advance_views();

  /// Applies a received frame from neighbor `from` onto the current view
  /// and marks that neighbor fresh for the next update. An empty frame
  /// is a heartbeat: no values change, but the neighbor counts as heard
  /// from. A frame from a non-neighbor is a contract violation.
  void apply_update(topology::NodeId from,
                    std::span<const net::ParamUpdate> updates);

  /// True when `j`'s latest round update arrived (used by kReweight).
  bool is_fresh(topology::NodeId j) const;

  topology::NodeId id() const noexcept { return id_; }
  const std::vector<topology::NodeId>& neighbors() const noexcept {
    return neighbors_;
  }
  const linalg::Vector& params() const noexcept { return x_current_; }
  const data::Dataset& shard() const noexcept { return shard_; }
  std::size_t iteration() const noexcept { return iteration_; }

  /// Local objective f_i evaluated at arbitrary parameters.
  double local_loss(const linalg::Vector& at) const {
    return model_->loss(at, shard_);
  }

  /// The view this node currently holds of neighbor `j` (for tests).
  std::span<const double> view_of(topology::NodeId j) const;

  /// Checkpoint save/restore of the complete mutable node state: mixing
  /// rows (current + the prev-row the memory term pairs with), iterate
  /// history, advertised baseline, view slabs + freshness, and the
  /// EXTRA iteration counter. The id/model/shard/straggler policy are
  /// reconstruction-time — the trainer rebuilds the node, then load()
  /// overwrites the rest. load returns false on a truncated or shape-inconsistent
  /// blob; the node is then unusable (the caller abandons the resume).
  void save(common::ByteWriter& writer) const;
  bool load(common::ByteReader& reader);

 private:
  /// The checkpoint field list save and load both walk.
  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    fields(io, self.neighbors_, self.w_neighbors_, self.w_self_,
           self.neighbors_prev_, self.w_neighbors_prev_, self.w_self_prev_,
           self.w_row_dirty_, self.x_previous_, self.x_current_,
           self.grad_previous_, self.advertised_, self.dim_,
           self.view_current_slab_, self.view_previous_slab_, self.fresh_,
           self.fresh_previous_, self.iteration_);
  }
  /// The shape checks load applies after the transfer.
  bool validate() const;

  void validate_weight_row() const;
  /// Slot of neighbor j in the sorted neighbor list, or npos.
  std::size_t slot_of(topology::NodeId j) const noexcept;
  /// Rebuilds the view slabs for a grown neighbor list, carrying the
  /// old views over and priming the new neighbors'.
  void reindex_views(const std::vector<topology::NodeId>& old_neighbors);

  std::span<const double> view_current(std::size_t slot) const noexcept {
    return {view_current_slab_.data() + slot * dim_, dim_};
  }
  std::span<double> view_current(std::size_t slot) noexcept {
    return {view_current_slab_.data() + slot * dim_, dim_};
  }
  std::span<const double> view_previous(std::size_t slot) const noexcept {
    return {view_previous_slab_.data() + slot * dim_, dim_};
  }

  topology::NodeId id_;
  const ml::Model* model_;
  data::Dataset shard_;
  /// Index-sorted neighbor ids; w_neighbors_[s] is the mixing weight of
  /// neighbors_[s] (a CSR row with the diagonal held in w_self_).
  std::vector<topology::NodeId> neighbors_;
  std::vector<double> w_neighbors_;
  double w_self_ = 0.0;
  /// The row the previous compute_update mixed with — the W̃ memory term
  /// must pair with it, not with a row swapped in since (time-varying
  /// gossip activations; identical to the current row under a static W).
  /// Only re-captured when the row actually changed (see w_row_dirty_).
  std::vector<topology::NodeId> neighbors_prev_;
  std::vector<double> w_neighbors_prev_;
  double w_self_prev_ = 0.0;
  /// True when the mixing row (or neighbor set) changed since the last
  /// compute_update — lets the per-round prev-row capture degenerate to
  /// a flag clear on the (overwhelmingly common) static-row rounds.
  bool w_row_dirty_ = true;

  linalg::Vector x_previous_;
  linalg::Vector x_current_;
  /// compute_update's output buffer, rotated with x_previous_ so a
  /// round allocates nothing.
  linalg::Vector x_next_;
  linalg::Vector grad_previous_;
  /// This round's gradient (gradient_row); swapped into grad_previous_
  /// by extra_step. Empty between rounds when extra_step parked the
  /// retired buffer as the thread's spare.
  linalg::Vector grad_now_;
  /// Set by gradient_row, consumed by extra_step: one row per step.
  bool gradient_pending_ = false;
  linalg::Vector advertised_;
  StragglerPolicy straggler_policy_;
  /// Neighbor views as slot-major contiguous slabs of dim_ doubles.
  std::size_t dim_ = 0;
  std::vector<double> view_current_slab_;
  std::vector<double> view_previous_slab_;
  std::vector<std::uint8_t> fresh_;
  std::vector<std::uint8_t> fresh_previous_;
  std::size_t iteration_ = 0;
};

}  // namespace snap::core
