// Property suite for the cost-aware topology sparsifier, checked
// against dense oracles.
//
// Across 100+ random (graph, seed, cost-model) triples the greedy
// schedule must: never disconnect a component (the component labeling
// of the pruned graph equals the input's), respect the SLEM budget on
// every component it touched (re-verified here through the dense
// Jacobi path, not the sparsifier's own bookkeeping), save cost
// monotonically step over step, and replay bitwise across reruns and
// trainer thread counts. The Lanczos routing above
// kDenseSpectralCutoff is pinned to the dense oracle at n = 180.
#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/mixing_spectrum.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "consensus/topology_sparsifier.hpp"
#include "core/snap_trainer.hpp"
#include "core/training.hpp"
#include "linalg/eigen.hpp"
#include "support/bitwise_result.hpp"
#include "support/quadratic_model.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"

namespace snap::consensus {
namespace {

using snap::testing::QuadraticModel;
using snap::testing::expect_bitwise_equal;
using snap::testing::point_shard;

topology::Graph pruned_subgraph(const topology::Graph& g,
                                const std::vector<std::uint8_t>& kept) {
  topology::Graph out(g.node_count());
  const auto& edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (kept[e]) out.add_edge(edges[e].first, edges[e].second);
  }
  return out;
}

/// One graph per case index, cycling shape families so no single
/// generator's structure dominates the suite.
topology::Graph case_graph(std::size_t index, std::uint64_t seed) {
  common::Rng rng(seed * 7919 + index);
  const std::size_t n = 8 + index % 9;  // 8..16
  switch (index % 3) {
    case 0:
      return topology::make_random_connected(n, 3.5, rng);
    case 1: {
      // Ring plus random chords: many near-redundant shortcuts, the
      // shape where pruning bites hardest.
      topology::Graph g = topology::make_ring(n);
      for (std::size_t k = 0; k < n / 2; ++k) {
        const auto u = static_cast<topology::NodeId>(rng.uniform_u64(n));
        const auto v = static_cast<topology::NodeId>(rng.uniform_u64(n));
        if (u != v && !g.has_edge(u, v)) g.add_edge(u, v);
      }
      return g;
    }
    default:
      // ER graphs may be disconnected — the sparsifier must preserve
      // the component structure exactly, never repair or worsen it.
      return topology::make_erdos_renyi(n, 0.35, rng);
  }
}

SparsifierConfig case_config(std::size_t index) {
  SparsifierConfig config;
  config.enabled = true;
  config.cost_model = (index % 2 == 0) ? LinkCostModel::kHops
                                       : LinkCostModel::kUniform;
  switch (index % 4) {
    case 0:
      config.slem_bound = 0.9;
      break;
    case 1:
      config.slem_bound = 0.97;
      break;
    case 2:
      config.cost_budget = 0.6;  // slem unconstrained
      break;
    default:
      config.slem_slack = 0.05;
      config.cost_budget = 0.5;
      break;
  }
  return config;
}

bool same_sparse(const SparseWeightMatrix& a, const SparseWeightMatrix& b) {
  if (a.node_count() != b.node_count()) return false;
  for (topology::NodeId i = 0; i < a.node_count(); ++i) {
    const auto ra = a.row(i);
    const auto rb = b.row(i);
    if (ra.cols.size() != rb.cols.size()) return false;
    for (std::size_t k = 0; k < ra.cols.size(); ++k) {
      if (ra.cols[k] != rb.cols[k]) return false;
      // Bitwise, not approximate: the determinism contract.
      if (std::memcmp(&ra.values[k], &rb.values[k], sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(SparsifierPropertyTest, GreedyScheduleInvariantsOn108Triples) {
  for (std::size_t index = 0; index < 108; ++index) {
    const std::uint64_t seed = 11 + index;
    const topology::Graph g = case_graph(index, seed);
    const SparsifierConfig config = case_config(index);
    const SparsifierResult result = sparsify_topology(g, {}, config);

    ASSERT_EQ(result.edge_kept.size(), g.edge_count()) << "case " << index;
    ASSERT_EQ(result.links_pruned + result.effective_edges,
              g.edge_count())
        << "case " << index;

    // Connectivity: the pruned graph's component labeling is the
    // input's, node for node — nothing split, nothing merged.
    const topology::Graph pruned = pruned_subgraph(g, result.edge_kept);
    const topology::ComponentMap before = topology::connected_components(g);
    const topology::ComponentMap after =
        topology::connected_components(pruned);
    ASSERT_EQ(after.count, before.count) << "case " << index;
    ASSERT_EQ(after.label, before.label) << "case " << index;

    // Cost: monotone non-increasing along the greedy schedule, prices
    // non-negative, and the final step's total matches the result.
    double prev_cost = result.cost_before;
    for (std::size_t s = 0; s < result.steps.size(); ++s) {
      const PruneStep& step = result.steps[s];
      EXPECT_GE(step.price, 0.0) << "case " << index << " step " << s;
      EXPECT_LE(step.cost_after, prev_cost)
          << "case " << index << " step " << s;
      prev_cost = step.cost_after;
    }
    ASSERT_EQ(result.steps.size(), result.links_pruned) << "case " << index;
    if (!result.steps.empty()) {
      EXPECT_EQ(result.steps.back().cost_after, result.cost_after)
          << "case " << index;
      EXPECT_EQ(result.steps.back().slem_after, result.slem_after)
          << "case " << index;
    }

    // SLEM budget, re-verified through the dense Jacobi oracle on every
    // component the schedule touched (untouched components are allowed
    // to start, and stay, above the bound — the budget gates removals).
    if (!result.steps.empty()) {
      const double bound =
          config.slem_slack > 0.0
              ? std::min(config.slem_bound,
                         result.slem_before + config.slem_slack)
              : config.slem_bound;
      std::vector<bool> touched(before.count, false);
      for (const PruneStep& step : result.steps) {
        touched[before.label[step.u]] = true;
      }
      for (std::size_t c = 0; c < before.count; ++c) {
        if (!touched[c]) continue;
        std::vector<topology::NodeId> members;
        for (topology::NodeId i = 0; i < g.node_count(); ++i) {
          if (before.label[i] == c) members.push_back(i);
        }
        if (members.size() < 2) continue;
        topology::Graph sub(members.size());
        std::vector<std::size_t> compact(g.node_count(), 0);
        for (std::size_t k = 0; k < members.size(); ++k) {
          compact[members[k]] = k;
        }
        const auto& edges = g.edges();
        for (std::size_t e = 0; e < edges.size(); ++e) {
          if (!result.edge_kept[e]) continue;
          if (before.label[edges[e].first] != c) continue;
          sub.add_edge(compact[edges[e].first], compact[edges[e].second]);
        }
        const linalg::SpectralSummary oracle = linalg::spectral_summary(
            SparseWeightMatrix::metropolis_on_survivors(sub).to_dense());
        EXPECT_LE(oracle.slem, bound + 1e-9)
            << "case " << index << " component " << c;
      }
    }

    // Replay: a second identical call is bitwise the first.
    const SparsifierResult replay = sparsify_topology(g, {}, config);
    ASSERT_EQ(replay.edge_kept, result.edge_kept) << "case " << index;
    ASSERT_EQ(replay.steps.size(), result.steps.size()) << "case " << index;
    for (std::size_t s = 0; s < result.steps.size(); ++s) {
      EXPECT_EQ(replay.steps[s].u, result.steps[s].u);
      EXPECT_EQ(replay.steps[s].v, result.steps[s].v);
      EXPECT_EQ(replay.steps[s].slem_after, result.steps[s].slem_after);
      EXPECT_EQ(replay.steps[s].cost_after, result.steps[s].cost_after);
    }
    ASSERT_TRUE(same_sparse(replay.w, result.w)) << "case " << index;
  }
}

// The sparsifier hands the Metropolis kernel its edge mask; a mask that
// keeps every edge must be bitwise the same as passing none, with and
// without component labels.
TEST(SparsifierPropertyTest, AllKeptSubgraphMatchesSurvivorBuilders) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    common::Rng rng(seed * 131);
    const topology::Graph g =
        topology::make_random_connected(10 + seed % 5, 3.0, rng);
    const std::vector<std::uint8_t> all_kept(g.edge_count(), 1);

    std::vector<bool> alive(g.node_count(), true);
    if (seed % 3 == 0) alive[seed % g.node_count()] = false;

    const SparseWeightMatrix via_subgraph =
        SparseWeightMatrix::metropolis_on_survivors(g, alive, {}, all_kept);
    const SparseWeightMatrix via_survivors =
        SparseWeightMatrix::metropolis_on_survivors(g, alive);
    ASSERT_TRUE(same_sparse(via_subgraph, via_survivors)) << "seed " << seed;

    const topology::ComponentMap map = topology::connected_components(
        g, std::vector<std::uint8_t>(alive.begin(), alive.end()));
    const SparseWeightMatrix via_components =
        SparseWeightMatrix::metropolis_on_survivors(g, alive, map.label);
    const SparseWeightMatrix via_subgraph_labels =
        SparseWeightMatrix::metropolis_on_survivors(g, alive, map.label,
                                                    all_kept);
    ASSERT_TRUE(same_sparse(via_subgraph_labels, via_components))
        << "seed " << seed;
    ASSERT_TRUE(same_sparse(via_components, via_survivors)) << "seed " << seed;
  }
}

// Above kDenseSpectralCutoff the sparsifier's spectral queries route
// through deflated Lanczos; the pruned mixing matrix's SLEM must agree
// with the dense Jacobi oracle to 1e-9. Every greedy step scores every
// non-bridge survivor with one spectral query, so the graph is a star
// (all spokes are bridges, filtered by the cheap connectivity gate)
// plus a handful of leaf-to-leaf chords — the only edges that reach
// the Lanczos path. That keeps the n = 180 run to a few dozen queries
// instead of the thousands a uniformly cyclic graph would cost.
TEST(SparsifierPropertyTest, LanczosAgreesWithDenseOracleAboveCutoff) {
  constexpr std::size_t kNodes = 180;
  static_assert(kNodes > kDenseSpectralCutoff);
  topology::Graph g = topology::make_star(kNodes);
  // Five disjoint triangles plus two sharing the spoke to node 12.
  for (const auto& [u, v] :
       {std::pair<topology::NodeId, topology::NodeId>{1, 2},
        {3, 4},
        {5, 6},
        {7, 8},
        {9, 10},
        {11, 12},
        {12, 13}}) {
    g.add_edge(u, v);
  }

  SparsifierConfig config;
  config.enabled = true;
  config.slem_bound = 1.0;
  // Far below what cycle-breaking can save: the greedy loop prunes
  // until every survivor is load-bearing, covering steps whose
  // candidate sets shrink as triangles collapse into bridges.
  config.cost_budget = 0.5;
  config.cost_model = LinkCostModel::kUniform;
  const SparsifierResult result = sparsify_topology(g, {}, config);
  ASSERT_GT(result.links_pruned, 0u);

  const MixingExtremes lanczos = mixing_extremes(result.w);
  const linalg::SpectralSummary jacobi =
      linalg::spectral_summary(result.w.to_dense());
  EXPECT_NEAR(lanczos.slem, jacobi.slem, 1e-9);
  EXPECT_NEAR(result.slem_after, jacobi.slem, 1e-9);
}

TEST(SparsifierPropertyTest, RefusesNumbersOutsideTheirDomains) {
  // slem_bound lies in (0, 1] and cost_budget in [0, 1]; both ends of
  // each domain are accepted.
  topology::Graph g(5);
  for (topology::NodeId i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  g.add_edge(0, 2);
  const auto with = [](double slem_bound, double cost_budget) {
    SparsifierConfig config;
    config.enabled = true;
    config.slem_bound = slem_bound;
    config.cost_budget = cost_budget;
    return config;
  };
  const double nan = std::nan("");
  for (const auto& [slem, cost] :
       {std::pair{0.0, 0.0}, {-1.0, 0.0}, {1.5, 0.0}, {nan, 0.0},
        {1.0, -0.1}, {1.0, 5.0}, {1.0, nan}}) {
    EXPECT_THROW(sparsify_topology(g, {}, with(slem, cost)),
                 common::ContractViolation)
        << "slem_bound " << slem << ", cost_budget " << cost;
  }
  for (const auto& [slem, cost] :
       {std::pair{1.0, 0.0}, {1.0, 1.0}, {1e-9, 0.5}}) {
    EXPECT_NO_THROW(sparsify_topology(g, {}, with(slem, cost)))
        << "slem_bound " << slem << ", cost_budget " << cost;
  }
}

core::TrainResult sparsified_run(const topology::Graph& g,
                                 std::size_t threads,
                                 runtime::FabricKind fabric) {
  constexpr std::size_t kDim = 3;
  const QuadraticModel model(kDim);
  common::Rng rng(99);
  std::vector<data::Dataset> shards;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    linalg::Vector c(kDim);
    for (std::size_t d = 0; d < kDim; ++d) c[d] = rng.normal(0.0, 2.0);
    shards.push_back(point_shard(c));
  }
  core::SnapTrainerConfig cfg;
  cfg.alpha = 0.2;
  cfg.seed = 5;
  cfg.threads = threads;
  cfg.fabric = fabric;
  cfg.convergence.max_iterations = 30;
  cfg.convergence.loss_tolerance = 0.0;
  cfg.sparsify.enabled = true;
  cfg.sparsify.slem_bound = 1.0;
  cfg.sparsify.cost_budget = 0.7;
  const SparseWeightMatrix w =
      SparseWeightMatrix::metropolis_on_survivors(g);
  core::SnapTrainer trainer(g, w, model, std::move(shards), cfg);
  return trainer.train(data::Dataset(kDim, 2));
}

TEST(SparsifierPropertyTest, TrainerTimelineBitwiseAcrossThreadCounts) {
  common::Rng rng(404);
  const topology::Graph g = topology::make_random_connected(10, 3.5, rng);
  for (const runtime::FabricKind fabric :
       {runtime::FabricKind::kSync, runtime::FabricKind::kGossip}) {
    const core::TrainResult one = sparsified_run(g, 1, fabric);
    const core::TrainResult four = sparsified_run(g, 4, fabric);
    const core::TrainResult rerun = sparsified_run(g, 1, fabric);
    ASSERT_GT(one.iterations.back().links_pruned, 0u);
    expect_bitwise_equal(one, four);
    expect_bitwise_equal(one, rerun);
  }
}

}  // namespace
}  // namespace snap::consensus
