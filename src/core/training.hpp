// Shared training-run vocabulary: per-iteration statistics, the uniform
// TrainResult every scheme produces, and the convergence detector that
// defines "iterations to converge" identically for SNAP, SNAP-0, SNO,
// the parameter-server baseline, TernGrad, and centralized training.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <tuple>
#include <vector>

#include "linalg/vector.hpp"
#include "runtime/phase_profile.hpp"

namespace snap::core {

/// One training iteration as observed from the outside.
struct IterationStats {
  double train_loss = 0.0;      ///< aggregate objective at the mean model
  double test_accuracy = 0.0;   ///< accuracy of the mean model (when evaluated)
  bool evaluated = false;       ///< whether loss/accuracy were computed
  std::uint64_t bytes = 0;      ///< socket bytes written this iteration
  std::uint64_t cost = 0;       ///< hop-weighted communication cost
  /// Largest per-node inbound / outbound byte count this iteration —
  /// the NIC-contention quantities behind the incast argument (§I).
  std::uint64_t max_node_inbound_bytes = 0;
  std::uint64_t max_node_outbound_bytes = 0;
  double consensus_residual = 0.0;  ///< max_i ‖x_i − x̄‖_∞ (0 for central)
  /// Simulated wall-clock at the end of this iteration (cumulative
  /// seconds since the start of the run). SyncFabric stamps it via the
  /// closed-form runtime::TimingModel; AsyncFabric reads its event
  /// clock. 0 for schemes that don't model time (centralized).
  double sim_seconds = 0.0;
  /// Async-fabric staleness of the frames mixed in during this
  /// iteration window: how many local rounds the receiver was ahead of
  /// the sender's round, averaged / maxed over deliveries. Always 0
  /// under synchronous execution.
  double mean_frame_staleness = 0.0;
  std::uint64_t max_frame_staleness = 0;
  /// Fault-injection telemetry (all 0 without a FaultInjector):
  /// burst-down links and crashed nodes during this iteration window,
  /// and frames the fabric dropped (down link/node, retries exhausted),
  /// corrupted in flight, or retransmitted (async bounded retry).
  std::uint64_t links_down = 0;
  std::uint64_t nodes_down = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_retried = 0;
  /// Elastic-membership telemetry: members up this iteration (equals
  /// the node count without a FaultInjector), nodes whose join was
  /// announced this iteration, and bytes spent on STATE_SYNC warm-start
  /// handoffs (also included in `bytes`/`cost`).
  std::uint64_t alive_nodes = 0;
  std::uint64_t nodes_joined = 0;
  std::uint64_t state_sync_bytes = 0;
  /// Gossip-fabric telemetry: links the activation scheduler selected
  /// this iteration. 0 on the other fabrics (every link is eligible).
  std::uint64_t links_activated = 0;
  /// Partition telemetry: connected components of the effective alive
  /// graph this iteration, the fraction of alive members in the largest
  /// one, and the monotone partition epoch (bumped every time the
  /// component structure changes). 1 / 1.0 / 0 when the run has no
  /// FaultInjector or the injector is not tracking partitions.
  std::uint64_t components = 1;
  double largest_component_frac = 1.0;
  std::uint64_t partition_epoch = 0;
  /// Topology-sparsifier telemetry (all 0 / 0.0 when sparsification is
  /// off): links the sparsifier currently holds pruned, effective
  /// (kept, alive, same-component) edges of the mixing topology, and
  /// the max component SLEM after the latest prune pass.
  std::uint64_t links_pruned = 0;
  std::uint64_t effective_edges = 0;
  double slem_after_prune = 0.0;

  /// Checkpoint codec (common::field): every kIterationStatsColumns
  /// entry in table order, at its natural width.
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);
};

/// One IterationStats column: its name (the CSV header, test
/// diagnostics), the member it reads, and whether the CSV exports it.
template <typename T>
struct StatColumn {
  std::string_view name;
  T IterationStats::*member;
  bool csv;
};

#define SNAP_STAT_COLUMN(member, csv)                                   \
  StatColumn<decltype(IterationStats::member)> {                        \
    #member, &IterationStats::member, csv                               \
  }

/// Every IterationStats member, once, in declaration order — the one
/// list the CSV writer, the run-checkpoint codec and the bitwise test
/// comparator walk. Adding a member means adding its entry here; the
/// static_asserts below reject a struct the table does not cover.
inline constexpr std::tuple kIterationStatsColumns{
    SNAP_STAT_COLUMN(train_loss, true),
    SNAP_STAT_COLUMN(test_accuracy, true),
    SNAP_STAT_COLUMN(evaluated, true),
    SNAP_STAT_COLUMN(bytes, true),
    SNAP_STAT_COLUMN(cost, true),
    SNAP_STAT_COLUMN(max_node_inbound_bytes, false),
    SNAP_STAT_COLUMN(max_node_outbound_bytes, false),
    SNAP_STAT_COLUMN(consensus_residual, true),
    SNAP_STAT_COLUMN(sim_seconds, true),
    SNAP_STAT_COLUMN(mean_frame_staleness, false),
    SNAP_STAT_COLUMN(max_frame_staleness, false),
    SNAP_STAT_COLUMN(links_down, true),
    SNAP_STAT_COLUMN(nodes_down, true),
    SNAP_STAT_COLUMN(frames_dropped, true),
    SNAP_STAT_COLUMN(frames_corrupted, true),
    SNAP_STAT_COLUMN(frames_retried, true),
    SNAP_STAT_COLUMN(alive_nodes, true),
    SNAP_STAT_COLUMN(nodes_joined, true),
    SNAP_STAT_COLUMN(state_sync_bytes, true),
    SNAP_STAT_COLUMN(links_activated, true),
    SNAP_STAT_COLUMN(components, true),
    SNAP_STAT_COLUMN(largest_component_frac, true),
    SNAP_STAT_COLUMN(partition_epoch, true),
    SNAP_STAT_COLUMN(links_pruned, true),
    SNAP_STAT_COLUMN(effective_edges, true),
    SNAP_STAT_COLUMN(slem_after_prune, true),
};

#undef SNAP_STAT_COLUMN

/// Calls `f(column)` for every kIterationStatsColumns entry, in order.
template <typename F>
constexpr void for_each_stat_column(F&& f) {
  std::apply([&](const auto&... column) { (f(column), ...); },
             kIterationStatsColumns);
}

template <class Self, class Io>
void IterationStats::transfer(Self& self, Io& io) {
  for_each_stat_column(
      [&](const auto& column) { field(io, self.*column.member); });
}

namespace detail {

/// Converts to any member type: `T{AnyMember{}...}` probes how many
/// members the aggregate T has.
struct AnyMember {
  template <typename T>
  constexpr operator T() const noexcept {
    return T{};
  }
};

template <typename T, typename... Probes>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Probes{}..., AnyMember{}}; }) {
    return member_count<T, Probes..., AnyMember>();
  }
  return sizeof...(Probes);
}

/// Strictly increasing member addresses: each member once, in order.
constexpr bool stat_columns_in_declaration_order() {
  const IterationStats stats{};
  const void* previous = nullptr;
  bool ordered = true;
  for_each_stat_column([&](const auto& column) {
    const void* here = &(stats.*column.member);
    ordered = ordered && (previous == nullptr || here > previous);
    previous = here;
  });
  return ordered;
}

}  // namespace detail

static_assert(detail::member_count<IterationStats>() ==
                  std::tuple_size_v<decltype(kIterationStatsColumns)>,
              "every IterationStats member needs a kIterationStatsColumns "
              "entry");
static_assert(detail::stat_columns_in_declaration_order(),
              "kIterationStatsColumns must list IterationStats members "
              "once each, in declaration order");

/// Uniform result of a training run.
struct TrainResult {
  std::vector<IterationStats> iterations;
  /// First iteration index (1-based count) at which the convergence
  /// detector fired; equals iterations.size() when it never fired.
  std::size_t converged_after = 0;
  bool converged = false;
  /// Mean model across nodes at the end of the run.
  linalg::Vector final_params;
  double final_train_loss = 0.0;
  double final_test_accuracy = 0.0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_cost = 0;
  /// Simulated wall-clock of the whole run (seconds); the last
  /// iteration's cumulative sim_seconds. 0 when time is not modeled.
  double total_sim_seconds = 0.0;
  /// Real wall-clock per round phase; filled by the sync and gossip
  /// fabrics, all zero on the others.
  runtime::PhaseProfile profile;
};

/// When to declare a run converged.
///
/// Default (plateau) mode — a run converges at iteration k when BOTH:
///   - relative loss plateau: |L_k − L_{k−window}| / max(|L_{k−window}|,
///     floor) < loss_tolerance, and
///   - consensus: max_i ‖x_i − x̄‖_∞ < consensus_tolerance (trivially 0
///     for single-model schemes).
///
/// Target mode — when `target_loss` is set, the plateau rule is replaced
/// by L_k <= target_loss (consensus still required). This is the metric
/// the cross-scheme sweeps use ("iterations to reach the centralized
/// converged loss"): a plateau can fire at a *worse* loss under heavy
/// filtering or link failures, which would make a degraded run look
/// faster.
struct ConvergenceCriteria {
  double loss_tolerance = 1e-4;
  double consensus_tolerance = 1e-3;
  std::size_t window = 5;
  std::size_t min_iterations = 10;
  std::size_t max_iterations = 500;
  std::optional<double> target_loss;
  /// Accuracy-target mode (highest precedence): converged when the
  /// evaluated test accuracy reaches this value (consensus still
  /// required). This is the paper's operative notion — "achieve the
  /// same accuracy performance as the centralized training" — and the
  /// one under which SNAP's headline communication savings hold; an
  /// equal-loss bar (target_loss) is stricter because small APE bias
  /// barely moves accuracy but shows up in the loss.
  std::optional<double> target_accuracy;
};

/// Streaming detector over (loss, consensus_residual) observations.
class ConvergenceDetector {
 public:
  explicit ConvergenceDetector(const ConvergenceCriteria& criteria)
      : criteria_(criteria) {}

  /// Feeds one iteration's observations; returns true once converged
  /// (and stays true). `accuracy` is the evaluated test accuracy, or a
  /// negative value on iterations where accuracy was not evaluated
  /// (accuracy-target mode simply cannot fire on those iterations).
  bool observe(double loss, double consensus_residual,
               double accuracy = -1.0);

  bool converged() const noexcept { return converged_; }

  /// Iterations observed when convergence first fired.
  std::size_t converged_after() const noexcept { return converged_after_; }

  const ConvergenceCriteria& criteria() const noexcept { return criteria_; }

 private:
  ConvergenceCriteria criteria_;
  std::vector<double> losses_;
  bool converged_ = false;
  std::size_t converged_after_ = 0;
};

/// How often (and on how much data) to evaluate loss/accuracy during a
/// run. Evaluation on every iteration is exact but expensive for the
/// MLP, so benches may sample.
struct EvalConfig {
  /// Evaluate on iterations k with k % every == 0 (and always the last).
  std::size_t every = 1;
};

}  // namespace snap::core
