// Cost-aware topology sparsification under a SLEM budget.
//
// SNAP (§IV-B) optimizes the mixing matrix W over a *fixed* topology;
// the larger win is pruning the topology itself: every surviving link
// is a per-round communication cost, and most graphs carry edges whose
// removal barely moves the second-largest eigenvalue modulus. The
// sparsifier greedily removes the edge with the best
// cost-saved-per-SLEM-degradation score, re-deriving W on the surviving
// subgraph, and refuses two failure modes by construction:
//
//   - it never disconnects a component (a BFS guard per candidate; the
//     per-component consensus machinery from the partition-tolerance
//     layer owns intentional splits, not the sparsifier), and
//   - it never exceeds the SLEM budget (each candidate's post-removal
//     SLEM is measured before the edge is dropped — dense Jacobi below
//     kDenseSpectralCutoff, deflated Lanczos above, the same routing as
//     every other spectral query).
//
// Determinism contract: sparsify_topology consumes no randomness — the
// result is a pure function of (graph, alive, labels, config). The
// trainer re-runs it at membership/partition epochs, and the schedule
// must replay bitwise across reruns, thread counts, socket shards, and
// checkpoint resume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "consensus/sparse_weight_matrix.hpp"
#include "consensus/weight_optimizer.hpp"
#include "consensus/weight_reprojection.hpp"
#include "topology/graph.hpp"

namespace snap::consensus {

/// How a link's per-round price is derived when no explicit price
/// vector is given.
enum class LinkCostModel {
  kUniform,  ///< every link costs 1 (prune count = cost saved)
  /// Detour distance: the price of {u, v} is the hop count of the
  /// shortest alternative u–v path (2 for a triangle edge, more for a
  /// long-haul shortcut). A link whose endpoints stay close without it
  /// is cheap to keep and cheap to drop; a link that shortcuts a long
  /// path is the expensive long-haul kind the greedy score targets
  /// first — the sparse analogue of the paper's hops-weighted cost
  /// (§II-B), where multi-hop flows cost hops × bytes.
  kHops,
};

struct SparsifierConfig {
  /// Master switch (the trainer/CLI wire-through).
  bool enabled = false;
  /// Hard ceiling on the post-prune SLEM of every component, in
  /// (0, 1]. 1.0 disables the bound (any non-disconnecting removal
  /// qualifies); 0 is outside the domain, not "prune maximally".
  double slem_bound = 1.0;
  /// Alternative relative budget: when > 0, the effective bound is
  /// min(slem_bound, slem_before + slem_slack) — "degrade mixing by at
  /// most this much", independent of where the topology starts.
  double slem_slack = 0.0;
  /// Stop pruning once the kept cost drops to this fraction of the
  /// initial cost, in [0, 1]. 0 means no cost target: prune maximally
  /// subject to the SLEM bound; 1 prunes nothing.
  double cost_budget = 0.0;
  LinkCostModel cost_model = LinkCostModel::kHops;
  /// Explicit per-link prices indexed by graph.edges() order; overrides
  /// cost_model when non-empty (size must equal edge_count).
  std::vector<double> link_prices;
  /// How W is re-derived on the surviving subgraph: Metropolis row
  /// weights (cheap, every epoch) or the full §IV-B optimizer per
  /// component (expensive; bench/offline use).
  ReprojectionMethod reweight = ReprojectionMethod::kMetropolis;
  WeightOptimizerConfig optimizer;
};

/// One greedy removal, in schedule order.
struct PruneStep {
  topology::NodeId u = 0;
  topology::NodeId v = 0;
  double price = 0.0;       ///< cost saved by this removal
  double slem_after = 0.0;  ///< max component SLEM after the removal
  double cost_after = 0.0;  ///< total kept cost after the removal
};

struct SparsifierResult {
  /// Per-edge survival flag indexed by graph.edges() order. Edges
  /// outside the effective (alive, same-component) subgraph are never
  /// candidates and stay 1 — they are inert, not pruned.
  std::vector<std::uint8_t> edge_kept;
  /// Mixing matrix on the surviving subgraph: structural zeros on the
  /// pruned (and non-effective) links keep every row aligned with the
  /// full graph's neighbor slots.
  SparseWeightMatrix w;
  std::vector<PruneStep> steps;
  double slem_before = 0.0;  ///< max component SLEM before pruning
  double slem_after = 0.0;   ///< max component SLEM after pruning
  double cost_before = 0.0;  ///< total price of the effective edges
  double cost_after = 0.0;   ///< total price of the kept effective edges
  std::size_t links_pruned = 0;
  std::size_t effective_edges = 0;  ///< kept effective edges
};

/// Per-link prices for a cost model, indexed by graph.edges() order.
/// kHops measures detours on the graph as given (no alive mask) —
/// callers with masks use sparsify_topology, which prices the effective
/// subgraph internally.
std::vector<double> link_prices(const topology::Graph& graph,
                                LinkCostModel model);

/// Greedily prunes the effective subgraph of `graph` under `config` and
/// re-derives W on the survivors. `alive` empty means all alive. The
/// labels overload restricts pruning within components (an edge whose
/// endpoints differ in label is inert — the partition machinery owns
/// it); the label-free overload derives components from the alive mask.
/// Pure function of its arguments; no RNG.
SparsifierResult sparsify_topology(const topology::Graph& graph,
                                   const std::vector<bool>& alive,
                                   const SparsifierConfig& config);
SparsifierResult sparsify_topology(const topology::Graph& graph,
                                   const std::vector<bool>& alive,
                                   const std::vector<std::size_t>& labels,
                                   const SparsifierConfig& config);

}  // namespace snap::consensus
