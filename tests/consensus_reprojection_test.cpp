// Weight-matrix re-projection under churn: the healed matrix must be
// symmetric, doubly stochastic, supported on the surviving links, and
// identity on dead nodes — feasible for the original graph with the
// alive block mixing only over survivors.
#include "consensus/weight_reprojection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "oracle/dense_mixing.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"

namespace snap::consensus {
namespace {

/// The production re-projection, densified for entry-wise checks.
linalg::Matrix dense_reprojection(const topology::Graph& g,
                                  const std::vector<bool>& alive,
                                  ReprojectionMethod method,
                                  const WeightOptimizerConfig& opt = {}) {
  return reproject_weight_matrix_sparse(g, alive, method, opt).to_dense();
}

linalg::Matrix dense_reprojection(const topology::Graph& g,
                                  const std::vector<bool>& alive,
                                  const std::vector<std::size_t>& labels,
                                  ReprojectionMethod method,
                                  const WeightOptimizerConfig& opt = {}) {
  return reproject_weight_matrix_sparse(g, alive, labels, method, opt)
      .to_dense();
}

void expect_reprojection_invariants(const linalg::Matrix& w,
                                    const topology::Graph& g,
                                    const std::vector<bool>& alive) {
  const std::size_t n = g.node_count();
  ASSERT_EQ(w.rows(), n);
  ASSERT_EQ(w.cols(), n);
  EXPECT_TRUE(is_feasible_weight_matrix(w, g));
  for (topology::NodeId i = 0; i < n; ++i) {
    for (topology::NodeId j = 0; j < n; ++j) {
      if (!alive[i] || !alive[j]) {
        // Dead rows/columns are identity: no weight flows to or from a
        // crashed node.
        EXPECT_DOUBLE_EQ(w(i, j), i == j ? 1.0 : 0.0)
            << "dead entry (" << i << "," << j << ")";
      } else if (i != j && !g.has_edge(i, j)) {
        EXPECT_DOUBLE_EQ(w(i, j), 0.0)
            << "off-support entry (" << i << "," << j << ")";
      }
    }
  }
}

TEST(WeightReprojectionTest, MetropolisHealsRingAfterOneCrash) {
  const auto g = topology::make_ring(8);
  std::vector<bool> alive(8, true);
  alive[3] = false;
  const auto w =
      dense_reprojection(g, alive, ReprojectionMethod::kMetropolis);
  expect_reprojection_invariants(w, g, alive);
  // Node 3's ring neighbors lose that link: their weight must flow
  // between each other's remaining links and self only.
  EXPECT_GT(w(2, 1), 0.0);
  EXPECT_GT(w(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(w(2, 3), 0.0);
  EXPECT_DOUBLE_EQ(w(4, 3), 0.0);
}

TEST(WeightReprojectionTest, MetropolisHandlesMultipleCrashes) {
  common::Rng rng(11);
  const auto g = topology::make_random_connected(12, 4.0, rng);
  std::vector<bool> alive(12, true);
  alive[0] = false;
  alive[5] = false;
  alive[9] = false;
  const auto w =
      dense_reprojection(g, alive, ReprojectionMethod::kMetropolis);
  expect_reprojection_invariants(w, g, alive);
}

TEST(WeightReprojectionTest, AllAliveKeepsFullSupport) {
  const auto g = topology::make_ring(6);
  const std::vector<bool> alive(6, true);
  const auto w =
      dense_reprojection(g, alive, ReprojectionMethod::kMetropolis);
  expect_reprojection_invariants(w, g, alive);
  for (const auto& [u, v] : g.edges()) {
    EXPECT_GT(w(u, v), 0.0) << "live link {" << u << "," << v
                            << "} lost its weight";
  }
}

TEST(WeightReprojectionTest, IsolatedSurvivorGetsIdentityRow) {
  // Crashing both ring neighbors of node 0 isolates it in the surviving
  // subgraph: its row degenerates to self-weight 1.
  const auto g = topology::make_ring(6);
  std::vector<bool> alive(6, true);
  alive[1] = false;
  alive[5] = false;
  const auto w =
      dense_reprojection(g, alive, ReprojectionMethod::kMetropolis);
  expect_reprojection_invariants(w, g, alive);
  EXPECT_DOUBLE_EQ(w(0, 0), 1.0);
  // The surviving path 2–3–4 still mixes.
  EXPECT_GT(w(2, 3), 0.0);
  EXPECT_GT(w(3, 4), 0.0);
}

TEST(WeightReprojectionTest, OptimizerMethodStaysFeasible) {
  common::Rng rng(3);
  const auto g = topology::make_random_connected(10, 3.0, rng);
  std::vector<bool> alive(10, true);
  alive[2] = false;
  alive[7] = false;
  WeightOptimizerConfig cfg;
  cfg.max_iterations = 40;
  const auto w =
      dense_reprojection(g, alive, ReprojectionMethod::kOptimize, cfg);
  expect_reprojection_invariants(w, g, alive);
}

// --- Elastic membership: shrink → grow → shrink walks -----------------
//
// With joins in the fault model the alive mask both clears and sets
// bits over a run. Every epoch's matrix must satisfy the same
// invariants, and whenever the alive subgraph is connected its compact
// block must keep a positive spectral gap (EXTRA restarted from the
// current iterates still contracts).

bool alive_subgraph_connected(const topology::Graph& g,
                              const std::vector<bool>& alive) {
  const std::size_t n = g.node_count();
  topology::NodeId start = static_cast<topology::NodeId>(n);
  std::size_t alive_count = 0;
  for (topology::NodeId i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    if (start == n) start = i;
    ++alive_count;
  }
  if (alive_count == 0) return false;
  std::vector<bool> seen(n, false);
  std::vector<topology::NodeId> stack{start};
  seen[start] = true;
  std::size_t reached = 0;
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    ++reached;
    for (const auto v : g.neighbors(u)) {
      if (alive[v] && !seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  return reached == alive_count;
}

/// Compact submatrix over the alive ids. For a reprojected W this is
/// itself symmetric doubly stochastic (dead columns are zero in alive
/// rows), so convergence_score applies directly.
linalg::Matrix alive_block(const linalg::Matrix& w,
                           const std::vector<bool>& alive) {
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (alive[i]) ids.push_back(i);
  }
  linalg::Matrix block(ids.size(), ids.size());
  for (std::size_t r = 0; r < ids.size(); ++r) {
    for (std::size_t c = 0; c < ids.size(); ++c) {
      block(r, c) = w(ids[r], ids[c]);
    }
  }
  return block;
}

TEST(WeightReprojectionTest, ShrinkGrowShrinkRoundTrip) {
  // Explicit three-epoch walk: two leaves, then both rejoin, then a
  // different pair leaves. The full-membership epoch in the middle must
  // restore full link support — growth is not just "no new deaths".
  common::Rng rng(17);
  const auto g = topology::make_random_connected(10, 3.0, rng);
  std::vector<bool> alive(10, true);

  alive[1] = alive[6] = false;  // shrink
  auto w = dense_reprojection(g, alive, ReprojectionMethod::kMetropolis);
  expect_reprojection_invariants(w, g, alive);

  alive[1] = alive[6] = true;  // grow back to full membership
  w = dense_reprojection(g, alive, ReprojectionMethod::kMetropolis);
  expect_reprojection_invariants(w, g, alive);
  for (const auto& [u, v] : g.edges()) {
    EXPECT_GT(w(u, v), 0.0)
        << "link {" << u << "," << v << "} not restored after grow";
  }

  alive[0] = alive[9] = false;  // shrink again, different nodes
  w = dense_reprojection(g, alive, ReprojectionMethod::kMetropolis);
  expect_reprojection_invariants(w, g, alive);
}

TEST(WeightReprojectionTest, ChurnWalkKeepsEveryEpochFeasible) {
  // Randomized membership walk: toggle a few nodes per epoch (shrinks
  // and grows interleaved, ≥ 2 survivors kept) and re-project with both
  // methods after every epoch. Connected alive blocks must also keep a
  // positive spectral gap.
  WeightOptimizerConfig opt;
  opt.max_iterations = 25;
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    common::Rng rng(1000 + trial);
    common::Rng topo_rng = rng.fork("topology");
    const std::size_t n = 12;
    const auto g = topology::make_random_connected(n, 3.5, topo_rng);
    std::vector<bool> alive(n, true);
    for (int epoch = 0; epoch < 10; ++epoch) {
      const auto flips = 1 + rng.uniform_u64(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const auto node =
            static_cast<std::size_t>(rng.uniform_u64(n));
        const auto alive_count = static_cast<std::size_t>(
            std::count(alive.begin(), alive.end(), true));
        if (alive[node] && alive_count <= 2) continue;
        alive[node] = !alive[node];
      }
      for (const auto method : {ReprojectionMethod::kMetropolis,
                                ReprojectionMethod::kOptimize}) {
        const auto w = dense_reprojection(g, alive, method, opt);
        expect_reprojection_invariants(w, g, alive);
        if (alive_subgraph_connected(g, alive)) {
          EXPECT_GT(convergence_score(alive_block(w, alive)), 0.0)
              << "trial " << trial << " epoch " << epoch;
        }
      }
    }
  }
}

TEST(WeightReprojectionTest, RequiresAtLeastOneSurvivor) {
  const auto g = topology::make_ring(4);
  const std::vector<bool> alive(4, false);
  EXPECT_THROW((void)reproject_weight_matrix_sparse(
                   g, alive, ReprojectionMethod::kMetropolis),
               common::ContractViolation);
}

// --- Component-aware re-projection: split → heal → merge --------------
//
// During a partition the labeling drives a block-diagonal W: an edge
// carries weight only when both endpoints are alive AND share a
// component. With a single component the labeled overload must be
// bitwise the plain survivor path, and every epoch must be bitwise the
// dense oracle's.

/// Labels of the alive-induced subgraph with `down` edges removed.
std::vector<std::size_t> labels_of(const topology::Graph& g,
                                   const std::vector<bool>& alive,
                                   const std::function<bool(
                                       topology::NodeId,
                                       topology::NodeId)>& down = nullptr) {
  std::vector<std::uint8_t> include(g.node_count(), 0);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    include[i] = alive[i] ? 1 : 0;
  }
  std::vector<std::uint8_t> edge_down;
  if (down) {
    for (const auto& [u, v] : g.edges()) edge_down.push_back(down(u, v));
  }
  return topology::connected_components(g, include, edge_down).label;
}

void expect_bitwise_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "entry (" << i << "," << j << ")";
    }
  }
}

/// Two K4 cliques joined by the bridge 3–4: cutting one edge splits it.
topology::Graph make_barbell() {
  topology::Graph g(8);
  for (topology::NodeId u = 0; u < 4; ++u) {
    for (topology::NodeId v = u + 1; v < 4; ++v) g.add_edge(u, v);
  }
  for (topology::NodeId u = 4; u < 8; ++u) {
    for (topology::NodeId v = u + 1; v < 8; ++v) g.add_edge(u, v);
  }
  g.add_edge(3, 4);
  return g;
}

TEST(ComponentReprojectionTest, SingleComponentMatchesSurvivorPathBitwise) {
  common::Rng rng(23);
  const auto g = topology::make_random_connected(10, 3.0, rng);
  std::vector<bool> alive(10, true);
  alive[4] = false;  // survivor subgraph stays connected for this seed
  const auto labels = labels_of(g, alive);
  ASSERT_EQ(labels[4], topology::ComponentMap::kExcluded);
  WeightOptimizerConfig opt;
  opt.max_iterations = 30;
  for (const auto method : {ReprojectionMethod::kMetropolis,
                            ReprojectionMethod::kOptimize}) {
    const auto plain =
        oracle::reproject_weight_matrix(g, alive, labels, method, opt);
    expect_bitwise_equal(dense_reprojection(g, alive, labels, method, opt),
                         plain);
    expect_bitwise_equal(dense_reprojection(g, alive, method, opt), plain);
  }
}

TEST(ComponentReprojectionTest, SplitHealMergeWalk) {
  const topology::Graph g = make_barbell();
  const auto bridge_down = [](topology::NodeId u, topology::NodeId v) {
    return u == 3 && v == 4;
  };
  WeightOptimizerConfig opt;
  opt.max_iterations = 30;
  for (const auto method : {ReprojectionMethod::kMetropolis,
                            ReprojectionMethod::kOptimize}) {
    std::vector<bool> alive(8, true);

    // Epoch 0: intact graph, one component.
    const auto whole =
        dense_reprojection(g, alive, labels_of(g, alive), method, opt);
    expect_reprojection_invariants(whole, g, alive);
    EXPECT_GT(whole(3, 4), 0.0);

    // Epoch 1: the bridge is cut — two components, block-diagonal W.
    const auto split_labels = labels_of(g, alive, bridge_down);
    EXPECT_NE(split_labels[3], split_labels[4]);
    const auto split =
        dense_reprojection(g, alive, split_labels, method, opt);
    expect_reprojection_invariants(split, g, alive);
    EXPECT_DOUBLE_EQ(split(3, 4), 0.0);
    EXPECT_DOUBLE_EQ(split(4, 3), 0.0);
    for (topology::NodeId u = 0; u < 8; ++u) {
      for (topology::NodeId v = 0; v < 8; ++v) {
        if (split_labels[u] != split_labels[v]) {
          EXPECT_DOUBLE_EQ(split(u, v), 0.0)
              << "cross-component weight (" << u << "," << v << ")";
        }
      }
    }
    // Each side keeps a contracting block of its own.
    EXPECT_GT(convergence_score(alive_block(
                  split, {true, true, true, true, false, false, false,
                          false})),
              0.0);
    EXPECT_GT(convergence_score(alive_block(
                  split, {false, false, false, false, true, true, true,
                          true})),
              0.0);

    // Epoch 2: shrink during the split — node 1 crashes on the left.
    alive[1] = false;
    const auto shrunk_labels = labels_of(g, alive, bridge_down);
    const auto shrunk =
        dense_reprojection(g, alive, shrunk_labels, method, opt);
    expect_reprojection_invariants(shrunk, g, alive);
    EXPECT_DOUBLE_EQ(shrunk(3, 4), 0.0);

    // Epoch 3: heal — merged labeling must reproduce the plain
    // survivor re-projection bitwise (merge-on-heal is not a new
    // regime, it is the single-component special case).
    const auto healed =
        dense_reprojection(g, alive, labels_of(g, alive), method, opt);
    expect_reprojection_invariants(healed, g, alive);
    EXPECT_GT(healed(3, 4), 0.0);
    expect_bitwise_equal(healed,
                         dense_reprojection(g, alive, method, opt));

    // The dense oracle replays the walk bitwise at every epoch.
    expect_bitwise_equal(
        split, oracle::reproject_weight_matrix(
                   g, std::vector<bool>(8, true), split_labels, method, opt));
    expect_bitwise_equal(shrunk, oracle::reproject_weight_matrix(
                                     g, alive, shrunk_labels, method, opt));
    expect_bitwise_equal(
        healed, oracle::reproject_weight_matrix(g, alive, labels_of(g, alive),
                                                method, opt));
  }
}

TEST(ComponentReprojectionTest, OptimizeSolvesDisconnectedSurvivorsPerBlock) {
  // Crashing the bridge endpoints disconnects the survivor subgraph.
  // The §IV-B optimizer refuses disconnected input, so the no-labels
  // kOptimize path must fall back to per-component solves — and stay
  // feasible — instead of throwing.
  const topology::Graph g = make_barbell();
  std::vector<bool> alive(8, true);
  alive[3] = false;
  alive[4] = false;
  WeightOptimizerConfig opt;
  opt.max_iterations = 30;
  const auto w =
      dense_reprojection(g, alive, ReprojectionMethod::kOptimize, opt);
  expect_reprojection_invariants(w, g, alive);
  // Both sides mix internally; nothing crosses the dead bridge.
  EXPECT_GT(w(0, 1), 0.0);
  EXPECT_GT(w(5, 6), 0.0);
  for (topology::NodeId u = 0; u < 3; ++u) {
    for (topology::NodeId v = 5; v < 8; ++v) {
      EXPECT_DOUBLE_EQ(w(u, v), 0.0);
    }
  }
}

}  // namespace
}  // namespace snap::consensus
