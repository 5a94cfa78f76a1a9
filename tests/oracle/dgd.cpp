#include "oracle/dgd.hpp"

#include <algorithm>
#include <cmath>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "runtime/sync_fabric.hpp"

namespace snap::oracle {

namespace {

// DGD runs on an abstract mixing matrix (possibly dense — no topology),
// so the fabric does no byte accounting and messages carry pointers
// into the frozen current_ snapshot.
runtime::FabricConfig dgd_fabric_config(std::size_t threads) {
  runtime::FabricConfig config;
  config.threads = threads;
  return config;
}

}  // namespace

DgdIteration::DgdIteration(linalg::Matrix w,
                           std::vector<linalg::Vector> initial,
                           double alpha, GradientFn gradient,
                           std::size_t threads)
    : w_(std::move(w)),
      alpha_(alpha),
      gradient_(std::move(gradient)),
      current_(std::move(initial)),
      fabric_(std::make_unique<runtime::SyncFabric<const linalg::Vector*>>(
          dgd_fabric_config(threads))) {
  SNAP_REQUIRE(alpha_ > 0.0);
  SNAP_REQUIRE(gradient_ != nullptr);
  SNAP_REQUIRE(!current_.empty());
  SNAP_REQUIRE(w_.rows() == current_.size());
  SNAP_REQUIRE_MSG(w_.is_symmetric(1e-9), "W must be symmetric");
  SNAP_REQUIRE_MSG(linalg::is_doubly_stochastic(w_, 1e-8),
                   "W must be doubly stochastic");
  const std::size_t dim = current_.front().size();
  for (const auto& row : current_) {
    SNAP_REQUIRE_MSG(row.size() == dim, "ragged initial parameters");
  }
}

DgdIteration::~DgdIteration() = default;
DgdIteration::DgdIteration(DgdIteration&&) noexcept = default;
DgdIteration& DgdIteration::operator=(DgdIteration&&) noexcept = default;

common::ThreadPool& DgdIteration::pool() const noexcept {
  return fabric_->pool();
}

void DgdIteration::set_weight_matrix(linalg::Matrix w) {
  SNAP_REQUIRE_MSG(w.rows() == current_.size(),
                   "membership epochs must not change the node count");
  SNAP_REQUIRE_MSG(w.is_symmetric(1e-9), "W must be symmetric");
  SNAP_REQUIRE_MSG(linalg::is_doubly_stochastic(w, 1e-8),
                   "W must be doubly stochastic");
  w_ = std::move(w);
}

void DgdIteration::set_params(std::size_t node, linalg::Vector x) {
  SNAP_REQUIRE(node < current_.size());
  SNAP_REQUIRE_MSG(x.size() == current_.front().size(),
                   "parameter dimension mismatch");
  current_[node] = std::move(x);
}

void DgdIteration::step() {
  const std::size_t n = current_.size();
  const std::size_t dim = current_.front().size();
  if (next_.size() != n) next_.assign(n, linalg::Vector(dim));
  if (gradients_.size() != n) gradients_.resize(n);

  // One DGD iteration as fabric phases over the frozen current_
  // snapshot. Hooks are rebuilt per step so their captures stay valid
  // across moves of this object.
  using Payload = const linalg::Vector*;
  runtime::RoundHooks<Payload> hooks;
  hooks.node_count = n;

  hooks.local_update = [&](topology::NodeId i) {
    gradients_[i] = gradient_(i, current_[i]);
  };

  // Every nonzero off-diagonal W entry is a message: node i ships its
  // (frozen) iterate to each j with w_ji ≠ 0.
  hooks.collect = [&](topology::NodeId i) {
    std::vector<runtime::Envelope<Payload>> envelopes;
    for (topology::NodeId j = 0; j < n; ++j) {
      if (j == i || w_(j, i) == 0.0) continue;
      envelopes.push_back({j, &current_[i], 0});
    }
    return envelopes;
  };

  // next_[i] = Σ_j w_ij x_j − α ∇f_i(x_i), folding j in ascending
  // order (deliveries arrive sorted by sender; the self term slots in
  // at j == i) — bitwise identical to the pre-refactor dense loop.
  hooks.mix = [&](topology::NodeId i,
                  std::span<const runtime::Delivery<Payload>> deliveries,
                  runtime::MessageSink<Payload>&) {
    linalg::Vector& next = next_[i];
    next = linalg::Vector(dim);
    std::size_t d = 0;
    for (topology::NodeId j = 0; j < n; ++j) {
      const double w = w_(i, j);
      if (j == i) {
        if (w != 0.0) next.axpy(w, current_[i]);
        continue;
      }
      if (d < deliveries.size() && deliveries[d].from == j) {
        if (w != 0.0) next.axpy(w, *deliveries[d].payload);
        ++d;
      }
    }
    next.axpy(-alpha_, gradients_[i]);
  };

  fabric_->step_round(hooks, iteration_ + 1);
  current_.swap(next_);
  ++iteration_;
}

void DgdIteration::save(common::ByteWriter& writer) const {
  writer.write_u64(iteration_);
  writer.write_u64(current_.size());
  writer.write_u64(current_.front().size());
  for (const auto& x : current_) {
    for (std::size_t d = 0; d < x.size(); ++d) writer.write_f64(x[d]);
  }
}

bool DgdIteration::load(common::ByteReader& reader) {
  const std::uint64_t iteration = reader.read_u64();
  const std::uint64_t nodes = reader.read_u64();
  const std::uint64_t dim = reader.read_u64();
  if (!reader.ok() || nodes != current_.size() ||
      dim != current_.front().size()) {
    return false;
  }
  for (auto& x : current_) {
    for (std::size_t d = 0; d < x.size(); ++d) x[d] = reader.read_f64();
  }
  if (!reader.ok()) return false;
  iteration_ = iteration;
  return true;
}

const linalg::Vector& DgdIteration::params(std::size_t node) const {
  SNAP_REQUIRE(node < current_.size());
  return current_[node];
}

linalg::Vector DgdIteration::mean_params() const {
  // Parallel over dimensions; per-entry folds stay in node order, so
  // the mean is bitwise independent of the thread count.
  const std::size_t dim = current_.front().size();
  const double inverse_count = 1.0 / static_cast<double>(current_.size());
  linalg::Vector mean(dim);
  pool().parallel_for(0, dim, [&](std::size_t d) {
    double acc = 0.0;
    for (const auto& x : current_) acc += x[d];
    mean[d] = acc * inverse_count;
  });
  return mean;
}

double DgdIteration::consensus_residual() const {
  const linalg::Vector mean = mean_params();
  return common::ordered_parallel_max(
      pool(), current_.size(), [&](std::size_t i) {
        return linalg::max_abs_diff(current_[i], mean);
      });
}

}  // namespace snap::oracle
