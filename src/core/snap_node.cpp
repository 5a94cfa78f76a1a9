#include "core/snap_node.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace snap::core {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// One spare gradient buffer per pool thread. extra_step parks the
/// retired previous gradient here while it is still hot from the
/// recursion's read, and gradient_row takes it when the node holds no
/// buffer — so a sweep that computes and steps each node in turn writes
/// every gradient into a cached buffer, and the nodes keep one stored
/// gradient each. A node computed in a phase of its own keeps both
/// buffers across rounds instead.
linalg::Vector& spare_gradient() {
  thread_local linalg::Vector spare;
  return spare;
}

}  // namespace

SnapNode::SnapNode(topology::NodeId id, const ml::Model& model,
                   data::Dataset shard,
                   std::vector<topology::NodeId> neighbors,
                   std::vector<double> neighbor_weights, double self_weight,
                   StragglerPolicy straggler_policy)
    : id_(id),
      model_(&model),
      shard_(std::move(shard)),
      neighbors_(std::move(neighbors)),
      w_neighbors_(std::move(neighbor_weights)),
      w_self_(self_weight),
      straggler_policy_(straggler_policy) {
  SNAP_REQUIRE_MSG(
      std::is_sorted(neighbors_.begin(), neighbors_.end()),
      "SnapNode requires an index-sorted neighbor list");
  SNAP_REQUIRE(w_neighbors_.size() == neighbors_.size());
  validate_weight_row();
}

void SnapNode::set_weight_row(std::span<const RowEntry> entries) {
  w_neighbors_.assign(neighbors_.size(), 0.0);
  w_self_ = 1.0;
  for (const RowEntry& entry : entries) {
    const std::size_t slot = slot_of(entry.neighbor);
    SNAP_REQUIRE_MSG(slot != kNoSlot, "weight row of node "
                                          << id_ << " names " << entry.neighbor
                                          << ", which is not a neighbor");
    w_neighbors_[slot] += entry.weight;
    w_self_ -= entry.weight;
  }
  validate_weight_row();
  w_row_dirty_ = true;
}

void SnapNode::set_topology(std::vector<topology::NodeId> neighbors,
                            std::vector<double> neighbor_weights,
                            double self_weight) {
  SNAP_REQUIRE_MSG(std::is_sorted(neighbors.begin(), neighbors.end()),
                   "set_topology requires a sorted neighbor list");
  SNAP_REQUIRE(neighbor_weights.size() == neighbors.size());
  SNAP_REQUIRE_MSG(std::includes(neighbors.begin(), neighbors.end(),
                                 neighbors_.begin(), neighbors_.end()),
                   "set_topology would drop a neighbor of node " << id_);
  std::vector<topology::NodeId> old_neighbors = std::move(neighbors_);
  neighbors_ = std::move(neighbors);
  w_neighbors_ = std::move(neighbor_weights);
  w_self_ = self_weight;
  validate_weight_row();
  w_row_dirty_ = true;
  if (dim_ == 0) return;  // before set_initial: nothing to prime
  if (old_neighbors != neighbors_) reindex_views(old_neighbors);
}

void SnapNode::reindex_views(
    const std::vector<topology::NodeId>& old_neighbors) {
  const std::vector<double> old_current = std::move(view_current_slab_);
  const std::vector<double> old_previous = std::move(view_previous_slab_);
  const std::vector<std::uint8_t> old_fresh = std::move(fresh_);
  const std::vector<std::uint8_t> old_fresh_previous =
      std::move(fresh_previous_);

  const std::size_t deg = neighbors_.size();
  view_current_slab_.assign(deg * dim_, 0.0);
  view_previous_slab_.assign(deg * dim_, 0.0);
  fresh_.assign(deg, 0);
  fresh_previous_.assign(deg, 0);

  // Both lists are sorted and the old one is a subset of the new, so
  // one merge walk pairs every old slot with its new one.
  std::size_t os = 0;
  for (std::size_t s = 0; s < deg; ++s) {
    if (os < old_neighbors.size() && old_neighbors[os] == neighbors_[s]) {
      std::copy_n(old_current.data() + os * dim_, dim_,
                  view_current_slab_.data() + s * dim_);
      std::copy_n(old_previous.data() + os * dim_, dim_,
                  view_previous_slab_.data() + s * dim_);
      fresh_[s] = old_fresh[os];
      fresh_previous_[s] = old_fresh_previous[os];
      ++os;
      continue;
    }
    // A brand-new neighbor: no frame has ever arrived, so the view is a
    // placeholder (own iterate) and stale — kReweight folds its weight
    // until the neighbor's first real frame lands.
    std::copy_n(x_current_.data(), dim_, view_current_slab_.data() + s * dim_);
    std::copy_n(x_current_.data(), dim_,
                view_previous_slab_.data() + s * dim_);
  }
}

void SnapNode::adopt_params(const linalg::Vector& x) {
  SNAP_REQUIRE_MSG(!x_current_.empty(), "set_initial not called");
  SNAP_REQUIRE_MSG(x.size() == x_current_.size(),
                   "state sync dimension mismatch");
  x_current_ = x;
  x_previous_ = x;
  grad_previous_ = linalg::Vector();
  iteration_ = 0;
}

void SnapNode::validate_weight_row() const {
  double row_sum = 0.0;
  for (const double w : w_neighbors_) row_sum += w;
  SNAP_REQUIRE_MSG(std::abs(row_sum + w_self_ - 1.0) < 1e-6,
                   "weight row of node " << id_ << " sums to "
                                         << row_sum + w_self_);
}

std::size_t SnapNode::slot_of(topology::NodeId j) const noexcept {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), j);
  if (it == neighbors_.end() || *it != j) return kNoSlot;
  return static_cast<std::size_t>(it - neighbors_.begin());
}

void SnapNode::set_initial(const linalg::Vector& x0) {
  SNAP_REQUIRE(x0.size() == model_->param_count());
  x_current_ = x0;
  x_previous_ = x0;
  advertised_ = x0;
  grad_previous_ = linalg::Vector();
  dim_ = x0.size();
  const std::size_t deg = neighbors_.size();
  view_current_slab_.resize(deg * dim_);
  view_previous_slab_.resize(deg * dim_);
  for (std::size_t s = 0; s < deg; ++s) {
    std::copy_n(x0.data(), dim_, view_current_slab_.data() + s * dim_);
    std::copy_n(x0.data(), dim_, view_previous_slab_.data() + s * dim_);
  }
  fresh_.assign(deg, 1);  // identical x⁰ everywhere: views are exact
  fresh_previous_.assign(deg, 1);
  iteration_ = 0;
}

std::span<double> SnapNode::gradient_row() {
  SNAP_REQUIRE_MSG(!x_current_.empty(), "set_initial not called");
  if (grad_now_.empty()) std::swap(grad_now_, spare_gradient());
  grad_now_.resize(x_current_.size());
  gradient_pending_ = true;
  return grad_now_.span();
}

void SnapNode::compute_gradient() {
  const std::span<double> row = gradient_row();
  model_->loss_gradient_into(x_current_, shard_, row);
}

void SnapNode::extra_step(double alpha) {
  SNAP_REQUIRE_MSG(!x_current_.empty(), "set_initial not called");
  const std::size_t dim = x_current_.size();
  SNAP_REQUIRE_MSG(gradient_pending_,
                   "extra_step needs this round's gradient row");
  gradient_pending_ = false;
  const std::size_t deg = neighbors_.size();

  // kReweight: an absent neighbor's weight folds into the node's own
  // value, so the round's effective mixing matrix remains stochastic.
  // Each of the recursion's two terms consults the freshness of *its
  // own* round: after a dropped round, the W̃ term's view is two rounds
  // stale even though the W term's just recovered — substituting per
  // term keeps the perturbation one-round transient (anchoring the W̃
  // term to a 2-stale view feeds a slow exponential divergence through
  // EXTRA's accumulator).
  const auto current_of = [&](std::size_t s) -> std::span<const double> {
    if (straggler_policy_ == StragglerPolicy::kReweight && !fresh_[s]) {
      return x_current_.span();
    }
    return view_current(s);
  };
  const auto previous_of = [&](std::size_t s) -> std::span<const double> {
    if (straggler_policy_ == StragglerPolicy::kReweight &&
        !fresh_previous_[s]) {
      return x_previous_.span();
    }
    return view_previous(s);
  };

  const linalg::Vector& grad_now = grad_now_;
  if (iteration_ == 0) {
    // x¹ = Σ_j w_ij x̂_j⁰ − α ∇f_i(x⁰).
    linalg::Vector& next = x_next_;
    next.resize(dim);
    next.fill(0.0);
    next.axpy(w_self_, x_current_);
    for (std::size_t s = 0; s < deg; ++s) {
      next.axpy(w_neighbors_[s], current_of(s));
    }
    next.axpy(-alpha, grad_now);
  } else {
    // xᵏ⁺² = xᵏ⁺¹ + Σ_j w_ij x̂_jᵏ⁺¹ − Σ_j w̃'_ij x̂_jᵏ
    //        − α (∇f_i(xᵏ⁺¹) − ∇f_i(xᵏ)),  with w̃'_ij = (w'_ij+1{i=j})/2
    // and w' the row used by the PREVIOUS compute_update. For a static W
    // (every run but gossip) w' == w and this is the textbook recursion.
    // Under per-round row swaps the distinction is what keeps the
    // telescoped sum exact: the memory term must subtract the same
    // (row, view) product the previous round added, else the
    // ½(Wₜ − Wₜ₋₁)x̂ᵏ mismatch feeds a disagreement-proportional error
    // through the accumulator every round and the recursion diverges.
    linalg::Vector& next = x_next_;
    next = x_current_;
    next.axpy(w_self_, x_current_);
    next.axpy(-(w_self_prev_ + 1.0) / 2.0, x_previous_);
    // Both neighbor lists are sorted, so the previous round's weight for
    // each current neighbor comes from a single merge walk.
    std::size_t p = 0;
    const std::size_t deg_prev = neighbors_prev_.size();
    for (std::size_t s = 0; s < deg; ++s) {
      const topology::NodeId j = neighbors_[s];
      next.axpy(w_neighbors_[s], current_of(s));
      while (p < deg_prev && neighbors_prev_[p] < j) ++p;
      // A neighbor attached since the last update has no previous
      // weight: it contributed nothing last round, so nothing is owed.
      if (p < deg_prev && neighbors_prev_[p] == j) {
        next.axpy(-w_neighbors_prev_[p] / 2.0, previous_of(s));
      }
    }
    next.axpy(-alpha, grad_now);
    next.axpy(alpha, grad_previous_);
  }
  std::swap(grad_previous_, grad_now_);
  if (linalg::Vector& spare = spare_gradient(); spare.empty()) {
    std::swap(grad_now_, spare);
  }
  // Rotate (previous, current, next) ← (current, next, previous): the
  // retired iterate's storage becomes next round's output buffer.
  std::swap(x_previous_, x_current_);
  std::swap(x_current_, x_next_);
  if (w_row_dirty_) {
    // Capture the row the W̃ memory term must pair with next round.
    // Skipped on static-row rounds: the previous capture still matches.
    neighbors_prev_ = neighbors_;
    w_neighbors_prev_ = w_neighbors_;
    w_self_prev_ = w_self_;
    w_row_dirty_ = false;
  }
  ++iteration_;
}

SnapNode::Outgoing SnapNode::collect_updates(FilterMode mode,
                                             double threshold) {
  Outgoing out;
  out.max_withheld = collect_updates(mode, threshold, out.updates);
  return out;
}

double SnapNode::collect_updates(FilterMode mode, double threshold,
                                 std::vector<net::ParamUpdate>& updates) {
  SNAP_REQUIRE(threshold >= 0.0);
  updates.clear();
  double max_withheld = 0.0;
  const std::size_t dim = x_current_.size();
  for (std::size_t p = 0; p < dim; ++p) {
    const double change = std::abs(x_current_[p] - advertised_[p]);
    bool send = false;
    switch (mode) {
      case FilterMode::kSendAll:
        send = true;
        break;
      case FilterMode::kExactChange:
        send = change > 0.0;
        break;
      case FilterMode::kApe:
        send = change >= threshold && change > 0.0;
        break;
    }
    if (send) {
      updates.push_back({static_cast<std::uint32_t>(p), x_current_[p]});
      advertised_[p] = x_current_[p];
    } else {
      max_withheld = std::max(max_withheld, change);
    }
  }
  return max_withheld;
}

void SnapNode::advance_views() {
  view_previous_slab_ = view_current_slab_;
  fresh_previous_ = fresh_;
  std::fill(fresh_.begin(), fresh_.end(), std::uint8_t{0});
}

void SnapNode::apply_update(topology::NodeId from,
                            std::span<const net::ParamUpdate> updates) {
  const std::size_t s = slot_of(from);
  SNAP_REQUIRE_MSG(s != kNoSlot, "update from non-neighbor " << from);
  const std::span<double> view = view_current(s);
  for (const net::ParamUpdate& u : updates) {
    SNAP_REQUIRE(u.index < view.size());
    view[u.index] = u.value;
  }
  fresh_[s] = 1;
}

bool SnapNode::is_fresh(topology::NodeId j) const {
  const std::size_t s = slot_of(j);
  SNAP_REQUIRE_MSG(s != kNoSlot, "no neighbor " << j);
  return fresh_[s] != 0;
}

std::span<const double> SnapNode::view_of(topology::NodeId j) const {
  const std::size_t s = slot_of(j);
  SNAP_REQUIRE_MSG(s != kNoSlot, "no view of node " << j);
  return view_current(s);
}

void SnapNode::save(common::ByteWriter& writer) const {
  transfer(*this, writer);
}

bool SnapNode::load(common::ByteReader& reader) {
  transfer(*this, reader);
  return reader.ok() && validate();
}

// Shape consistency: everything slot-indexed must agree with the
// neighbor list (strictly ascending, never the node itself), and every
// per-parameter vector with dim_ — collect_updates and reindex_views
// index them up to dim_ unchecked.
bool SnapNode::validate() const {
  const std::size_t deg = neighbors_.size();
  for (std::size_t s = 0; s < deg; ++s) {
    const bool ascending = s == 0 || neighbors_[s - 1] < neighbors_[s];
    if (!ascending || neighbors_[s] == id_) return false;
  }
  return w_neighbors_.size() == deg && fresh_.size() == deg &&
         fresh_previous_.size() == deg &&
         view_current_slab_.size() == deg * dim_ &&
         view_previous_slab_.size() == deg * dim_ &&
         w_neighbors_prev_.size() == neighbors_prev_.size() &&
         dim_ == model_->param_count() && x_current_.size() == dim_ &&
         x_previous_.size() == dim_ && advertised_.size() == dim_ &&
         (grad_previous_.empty() || grad_previous_.size() == dim_);
}

}  // namespace snap::core
