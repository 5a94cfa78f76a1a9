// Sparse core vs dense oracle property suite.
//
// The CSR weight matrices, the sparse trainer path, and the derived-W̃
// EXTRA iteration all promise the same doubles the dense code produced
// — not approximately, bitwise. This suite enforces that promise at
// small n where the dense oracles (tests/oracle/) are cheap:
//   * every sparse builder equals its dense reference entry-for-entry,
//     the Metropolis kernel over random alive/label/kept-edge masks,
//   * re-projection epochs (shrink → grow → shrink) replay identically,
//   * a trainer fed the dense matrix and one fed the CSR matrix walk
//     bitwise-equal trajectories on the sync and gossip fabrics, with
//     and without churn,
//   * ExtraIteration without its materialized W̃ matches the manual
//     (W+I)/2 recursion exactly,
//   * a SnapNode whose row is re-set to identical values every round
//     (defeating the dirty-flag skip) matches one whose row is static.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "consensus/mixing_spectrum.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "consensus/weight_matrix.hpp"
#include "consensus/weight_reprojection.hpp"
#include "core/extra.hpp"
#include "core/snap_node.hpp"
#include "core/snap_trainer.hpp"
#include "linalg/eigen.hpp"
#include "oracle/dense_mixing.hpp"
#include "support/bitwise_result.hpp"
#include "support/quadratic_model.hpp"
#include "topology/generators.hpp"

namespace snap::consensus {
namespace {

using snap::testing::QuadraticModel;
using snap::testing::point_shard;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bitwise_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_TRUE(same_bits(a(i, j), b(i, j)))
          << "(" << i << "," << j << "): " << a(i, j) << " vs " << b(i, j);
    }
  }
}

std::vector<topology::Graph> property_graphs() {
  std::vector<topology::Graph> graphs = {
      topology::make_ring(16), topology::make_star(9),
      topology::make_grid(4, 4), topology::make_line(7)};
  for (const std::uint64_t seed : {1, 7, 42}) {
    common::Rng rng(seed);
    graphs.push_back(topology::make_random_connected(24, 3.5, rng));
  }
  return graphs;
}

TEST(SparseWeightMatrixTest, MaxDegreeMatchesDenseBitwise) {
  for (const auto& graph : property_graphs()) {
    const auto sparse = SparseWeightMatrix::max_degree(graph);
    expect_bitwise_equal(sparse.to_dense(), max_degree_weights(graph));
    EXPECT_TRUE(is_feasible_weight_matrix(sparse, graph));
    EXPECT_TRUE(sparse.is_symmetric());
    EXPECT_TRUE(sparse.is_doubly_stochastic());
  }
}

TEST(SparseWeightMatrixTest, MetropolisMatchesDenseReprojectionBitwise) {
  // The unlabelled kernel against the dense re-projection oracle, which
  // labels the alive-induced components itself: Metropolis edges never
  // cross a component, so both must give the same doubles.
  for (const auto& graph : property_graphs()) {
    const std::size_t n = graph.node_count();
    std::vector<bool> all_alive(n, true);
    std::vector<bool> holes(n, true);
    holes[0] = false;
    holes[n / 2] = false;
    for (const auto& alive : {all_alive, holes}) {
      const topology::ComponentMap map = topology::connected_components(
          graph, std::vector<std::uint8_t>(alive.begin(), alive.end()));
      const auto sparse =
          SparseWeightMatrix::metropolis_on_survivors(graph, alive);
      const linalg::Matrix dense = oracle::reproject_weight_matrix(
          graph, alive, map.label, ReprojectionMethod::kMetropolis);
      expect_bitwise_equal(sparse.to_dense(), dense);
      EXPECT_TRUE(is_feasible_weight_matrix(sparse, graph));
    }
  }
}

/// `graph` restricted to its kept edges (same nodes, graph.edges() order).
topology::Graph kept_subgraph(const topology::Graph& graph,
                              const std::vector<std::uint8_t>& edge_kept) {
  topology::Graph out(graph.node_count());
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (edge_kept.empty() || edge_kept[e] != 0) {
      out.add_edge(edges[e].first, edges[e].second);
    }
  }
  return out;
}

TEST(SparseWeightMatrixTest, MetropolisKernelMatchesDenseOracleBitwise) {
  // Every combination of node masks (none; holes; one component
  // spanning the survivors; random labels with excluded nodes) and edge
  // masks (none; every edge kept; ~30% dropped) on structured and random
  // graphs. The oracle is the dense Metropolis builder run on the kept
  // subgraph: a dropped edge must weigh exactly what a missing edge
  // weighs, and every mask left empty must mean "no restriction".
  constexpr std::size_t kEx = topology::ComponentMap::kExcluded;
  std::vector<topology::Graph> graphs = property_graphs();
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    common::Rng topo(seed);
    graphs.push_back(topology::make_random_connected(
        5 + static_cast<std::size_t>(topo.uniform_u64(20)), 3.5, topo));
  }
  common::Rng rng(2024);
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const topology::Graph& graph = graphs[g];
    const std::size_t n = graph.node_count();
    for (int node_mask = 0; node_mask < 4; ++node_mask) {
      for (int edge_mask = 0; edge_mask < 3; ++edge_mask) {
        std::vector<bool> alive;
        if (node_mask != 0) {
          alive.assign(n, true);
          for (std::size_t i = 0; i < n; ++i) alive[i] = !rng.bernoulli(0.2);
        }
        std::vector<std::size_t> labels;
        if (node_mask == 2) {
          labels.assign(n, kEx);
          for (std::size_t i = 0; i < n; ++i) {
            if (alive[i]) labels[i] = 0;
          }
        } else if (node_mask == 3) {
          labels.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            labels[i] = rng.bernoulli(0.1) ? kEx : rng.uniform_u64(3);
          }
        }
        std::vector<std::uint8_t> edge_kept;
        if (edge_mask != 0) edge_kept.assign(graph.edge_count(), 1);
        if (edge_mask == 2) {
          for (auto& kept : edge_kept) kept = rng.bernoulli(0.3) ? 0 : 1;
        }

        const auto sparse = SparseWeightMatrix::metropolis_on_survivors(
            graph, alive, labels, edge_kept);
        const std::vector<bool> alive_all =
            alive.empty() ? std::vector<bool>(n, true) : alive;
        SCOPED_TRACE("graph " + std::to_string(g) + " node mask " +
                     std::to_string(node_mask) + " edge mask " +
                     std::to_string(edge_mask));
        expect_bitwise_equal(
            sparse.to_dense(),
            oracle::metropolis_weights(kept_subgraph(graph, edge_kept),
                                       alive_all, labels));
        EXPECT_TRUE(is_feasible_weight_matrix(sparse, graph));
      }
    }
  }
}

TEST(SparseWeightMatrixTest, FromDenseRoundTripsOverSupport) {
  for (const auto& graph : property_graphs()) {
    const linalg::Matrix dense = max_degree_weights(graph);
    const auto sparse = SparseWeightMatrix::from_dense(dense, graph);
    expect_bitwise_equal(sparse.to_dense(), dense);
    // Row views are index-sorted and hold the diagonal.
    for (topology::NodeId i = 0; i < graph.node_count(); ++i) {
      const auto row = sparse.row(i);
      ASSERT_EQ(row.cols.size(), graph.degree(i) + 1);
      for (std::size_t k = 1; k < row.cols.size(); ++k) {
        EXPECT_LT(row.cols[k - 1], row.cols[k]);
      }
      EXPECT_TRUE(same_bits(sparse.diagonal(i), dense(i, i)));
    }
  }
}

TEST(SparseWeightMatrixTest, ConvergenceScoreMatchesDenseOracle) {
  // Below the dense cutoff both overloads run the same Jacobi solve on
  // the same doubles — the scores are identical, not just close.
  for (const auto& graph : property_graphs()) {
    const auto sparse = SparseWeightMatrix::max_degree(graph);
    EXPECT_TRUE(same_bits(convergence_score(sparse),
                          convergence_score(sparse.to_dense())));
  }
}

TEST(SparseWeightMatrixTest, EigenpairObjectivesPinToFullDecomposition) {
  // Satellite regression for the §IV-B optimizer objectives: the
  // eigenpair query they now consume must reproduce the historical
  // full-spectrum decomposition's extreme values and cluster widths.
  for (const auto& graph : property_graphs()) {
    const linalg::Matrix w = max_degree_weights(graph);
    const std::size_t n = w.rows();
    constexpr double kClusterTol = 1e-6;
    const MixingEigenpairs pairs = mixing_eigenpairs(w, kClusterTol);
    const linalg::EigenDecomposition eig = linalg::eigen_symmetric(w);
    ASSERT_FALSE(pairs.top_values.empty());
    ASSERT_FALSE(pairs.bottom_values.empty());
    EXPECT_TRUE(same_bits(pairs.top_values.back(), eig.values[n - 2]));
    EXPECT_TRUE(same_bits(pairs.bottom_values.front(), eig.values[0]));
    ASSERT_EQ(pairs.top_vectors.rows(), n);
    ASSERT_EQ(pairs.top_vectors.cols(), pairs.top_values.size());
    ASSERT_EQ(pairs.bottom_vectors.cols(), pairs.bottom_values.size());
  }
}

TEST(SparseReprojectionTest, ShrinkGrowShrinkEpochsReplayBitwise) {
  common::Rng rng(3);
  const topology::Graph graph = topology::make_random_connected(12, 3.0, rng);
  const std::size_t n = graph.node_count();
  // Membership epochs: full → two dead → one revived → three dead.
  std::vector<std::vector<bool>> epochs;
  epochs.emplace_back(n, true);
  epochs.emplace_back(n, true);
  epochs.back()[2] = epochs.back()[7] = false;
  epochs.emplace_back(n, true);
  epochs.back()[2] = false;
  epochs.emplace_back(n, true);
  epochs.back()[1] = epochs.back()[5] = epochs.back()[9] = false;
  for (const auto method :
       {ReprojectionMethod::kMetropolis, ReprojectionMethod::kOptimize}) {
    for (const auto& alive : epochs) {
      // Without labels the production path blocks W by the survivors'
      // components; the oracle is handed those components explicitly.
      const std::vector<std::uint8_t> include(alive.begin(), alive.end());
      const auto sparse = reproject_weight_matrix_sparse(graph, alive, method);
      const linalg::Matrix dense = oracle::reproject_weight_matrix(
          graph, alive, topology::connected_components(graph, include).label,
          method);
      expect_bitwise_equal(sparse.to_dense(), dense);
      EXPECT_TRUE(is_feasible_weight_matrix(sparse, graph));
      // Replay: the same epoch re-projects to the same matrix.
      expect_bitwise_equal(
          reproject_weight_matrix_sparse(graph, alive, method).to_dense(),
          sparse.to_dense());
    }
  }
}

TEST(SparseReprojectionTest, OptimizeOnKeptEdgesMatchesDenseOracleBitwise) {
  // The sparsifier's kOptimize leg: one §IV-B solve per component of the
  // kept subgraph, scattered onto the full graph's pattern. The oracle
  // solves the same blocks densely on the kept subgraph itself.
  WeightOptimizerConfig opt;
  opt.max_iterations = 25;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    common::Rng rng(seed * 31);
    const topology::Graph graph =
        topology::make_random_connected(10, 3.5, rng);
    std::vector<std::uint8_t> edge_kept(graph.edge_count(), 1);
    for (auto& kept : edge_kept) kept = rng.bernoulli(0.25) ? 0 : 1;
    std::vector<bool> alive(10, true);
    alive[seed] = false;
    const topology::Graph sub = kept_subgraph(graph, edge_kept);
    const std::vector<std::uint8_t> include(alive.begin(), alive.end());
    const auto labels = topology::connected_components(sub, include).label;
    const auto sparse = reproject_weight_matrix_sparse(
        graph, alive, labels, ReprojectionMethod::kOptimize, opt, edge_kept);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_bitwise_equal(
        sparse.to_dense(),
        oracle::reproject_weight_matrix(sub, alive, labels,
                                        ReprojectionMethod::kOptimize, opt));
    EXPECT_TRUE(is_feasible_weight_matrix(sparse, graph));
  }
}

// --- Trainer-level equivalence ---------------------------------------

std::vector<data::Dataset> random_point_shards(std::size_t nodes,
                                               std::size_t dim,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<data::Dataset> shards;
  shards.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    linalg::Vector c(dim);
    for (std::size_t d = 0; d < dim; ++d) c[d] = rng.normal(0.0, 2.0);
    shards.push_back(point_shard(c));
  }
  return shards;
}

core::SnapTrainerConfig trainer_config(runtime::FabricKind fabric) {
  core::SnapTrainerConfig cfg;
  cfg.alpha = 0.2;
  cfg.convergence.min_iterations = 30;
  cfg.convergence.max_iterations = 30;
  cfg.convergence.loss_tolerance = 0.0;
  cfg.fabric = fabric;
  cfg.seed = 9;
  return cfg;
}

TEST(SparseTrainerTest, DenseAndSparseConstructorsMatchBitwise) {
  common::Rng rng(21);
  const topology::Graph graph = topology::make_random_connected(10, 3.0, rng);
  const QuadraticModel model(4);
  const linalg::Matrix dense = max_degree_weights(graph);
  const auto sparse = SparseWeightMatrix::max_degree(graph);
  const data::Dataset test(4, 2);
  for (const auto fabric :
       {runtime::FabricKind::kSync, runtime::FabricKind::kGossip}) {
    core::SnapTrainer a(graph, dense, model,
                        random_point_shards(10, 4, 33), trainer_config(fabric));
    core::SnapTrainer b(graph, sparse, model,
                        random_point_shards(10, 4, 33), trainer_config(fabric));
    snap::testing::expect_bitwise_equal(a.train(test), b.train(test));
  }
}

TEST(SparseTrainerTest, ChurnReprojectionReplaysBitwiseAcrossConstructors) {
  common::Rng rng(4);
  const topology::Graph graph = topology::make_random_connected(10, 3.0, rng);
  const QuadraticModel model(4);
  const linalg::Matrix dense = max_degree_weights(graph);
  const auto sparse = SparseWeightMatrix::max_degree(graph);
  const data::Dataset test(4, 2);
  auto cfg = trainer_config(runtime::FabricKind::kSync);
  cfg.faults.scheduled_crashes.push_back({3, 8, 14});  // node 3 down [8, 14)
  cfg.faults.crash_probability = 0.01;
  cfg.faults.restart_probability = 0.3;
  core::SnapTrainer a(graph, dense, model, random_point_shards(10, 4, 5),
                      cfg);
  core::SnapTrainer b(graph, sparse, model, random_point_shards(10, 4, 5),
                      cfg);
  snap::testing::expect_bitwise_equal(a.train(test), b.train(test));
}

// --- EXTRA without the materialized W̃ --------------------------------

TEST(SparseExtraTest, DerivedWTildeMatchesManualRecursionBitwise) {
  common::Rng rng(6);
  const topology::Graph graph = topology::make_random_connected(8, 3.0, rng);
  const linalg::Matrix w = max_degree_weights(graph);
  const std::size_t n = graph.node_count();
  const std::size_t dim = 3;
  std::vector<linalg::Vector> centers;
  std::vector<linalg::Vector> initial;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector c(dim);
    linalg::Vector x(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      c[d] = rng.normal(0.0, 1.0);
      x[d] = rng.normal(0.0, 1.0);
    }
    centers.push_back(std::move(c));
    initial.push_back(std::move(x));
  }
  const auto gradient = [&](std::size_t i, const linalg::Vector& x) {
    linalg::Vector g = x;
    g -= centers[i];
    return g;
  };
  const double alpha = 0.15;
  core::ExtraIteration extra(w, initial, alpha, gradient);

  // Manual recursion with the W̃ = (W+I)/2 matrix explicitly formed,
  // accumulating in the same (ascending-j, zero-skipping) order.
  const linalg::Matrix wt = w_tilde(w);
  const auto mix = [&](const linalg::Matrix& m,
                       const std::vector<linalg::Vector>& x) {
    std::vector<linalg::Vector> out(n, linalg::Vector(dim));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (m(i, j) == 0.0) continue;
        out[i].axpy(m(i, j), x[j]);
      }
    }
    return out;
  };
  std::vector<linalg::Vector> prev;
  std::vector<linalg::Vector> cur = initial;
  std::vector<linalg::Vector> grad_prev(n);
  for (std::size_t k = 0; k < 25; ++k) {
    std::vector<linalg::Vector> next;
    if (k == 0) {
      for (std::size_t i = 0; i < n; ++i) grad_prev[i] = gradient(i, cur[i]);
      next = mix(w, cur);
      for (std::size_t i = 0; i < n; ++i) next[i].axpy(-alpha, grad_prev[i]);
    } else {
      next = mix(w, cur);
      const std::vector<linalg::Vector> mixed_prev = mix(wt, prev);
      for (std::size_t i = 0; i < n; ++i) {
        next[i] += cur[i];
        next[i] -= mixed_prev[i];
        linalg::Vector g = gradient(i, cur[i]);
        next[i].axpy(-alpha, g);
        next[i].axpy(alpha, grad_prev[i]);
        grad_prev[i] = std::move(g);
      }
    }
    prev = std::move(cur);
    cur = std::move(next);
    extra.step();
    for (std::size_t i = 0; i < n; ++i) {
      const linalg::Vector& got = extra.params(i);
      for (std::size_t d = 0; d < dim; ++d) {
        ASSERT_TRUE(same_bits(got[d], cur[i][d]))
            << "step " << k << " node " << i << " dim " << d;
      }
    }
  }
}

// --- SnapNode dirty-flag prev-row capture -----------------------------

TEST(SparseNodeTest, StaticRowSkipAndExplicitResetAgreeBitwise) {
  const QuadraticModel model(3);
  linalg::Vector center{0.5, -1.0, 2.0};
  const data::Dataset shard = point_shard(center);
  const std::vector<topology::NodeId> neighbors = {1, 2};
  const std::vector<double> row = {0.25, 0.25};
  const double self_weight = 0.5;
  core::SnapNode skip(0, model, shard, neighbors, row, self_weight);
  core::SnapNode reset(0, model, shard, neighbors, row, self_weight);
  // The same row in sparse form: 1 − 0.25 − 0.25 is exactly 0.5.
  const std::vector<core::SnapNode::RowEntry> entries = {{1, 0.25},
                                                         {2, 0.25}};
  const linalg::Vector x0{1.0, 1.0, 1.0};
  skip.set_initial(x0);
  reset.set_initial(x0);
  for (std::size_t k = 0; k < 12; ++k) {
    // Re-setting the identical row every round marks it dirty and
    // forces the prev-row copy the static node elides.
    reset.set_weight_row(entries);
    skip.compute_update(0.1);
    reset.compute_update(0.1);
    skip.advance_views();
    reset.advance_views();
    const linalg::Vector& a = skip.params();
    const linalg::Vector& b = reset.params();
    for (std::size_t d = 0; d < a.size(); ++d) {
      ASSERT_TRUE(same_bits(a[d], b[d])) << "round " << k << " dim " << d;
    }
  }
}

}  // namespace
}  // namespace snap::consensus
