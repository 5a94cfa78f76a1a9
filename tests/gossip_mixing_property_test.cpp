// Property suite for the gossip activation scheduler and its effective
// mixing matrices: over random (graph, seed, alive-mask) triples, every
// per-activation matrix must be symmetric, doubly stochastic, and
// identity on non-activated rows, and matching-mode activations must be
// actual matchings. These are the invariants the time-varying EXTRA
// argument rests on (DESIGN.md, "Gossip fabric"), so they are checked
// wholesale rather than on a few hand-picked graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "linalg/matrix.hpp"
#include "oracle/dense_mixing.hpp"
#include "runtime/gossip.hpp"
#include "topology/generators.hpp"

namespace snap::runtime {
namespace {

struct Triple {
  topology::Graph graph;
  std::uint64_t seed = 0;
  std::vector<bool> alive;
};

Triple random_triple(common::Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(4, 24));
  const double degree = rng.uniform(2.0, 4.0);
  common::Rng topo = rng.fork("topo");
  Triple t{topology::make_random_connected(n, degree, topo),
           rng.fork("seed").uniform_u64(~0ULL),
           {}};
  t.alive.assign(n, true);
  // Roughly a fifth of the triples run with a few nodes masked dead —
  // enough coverage of the churn interaction without starving the
  // activated-edge assertions.
  if (rng.bernoulli(0.2)) {
    for (std::size_t i = 0; i < n; ++i) t.alive[i] = !rng.bernoulli(0.25);
  }
  return t;
}

bool edge_exists(const topology::Graph& g, topology::NodeId u,
                 topology::NodeId v) {
  const auto& nb = g.neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

void check_activation_invariants(const Triple& t, const GossipConfig& cfg,
                                 std::size_t epoch, std::size_t round) {
  const auto links =
      gossip_activated_links(cfg, t.graph, epoch, round, t.alive);

  // Purity: the same arguments replay the identical set.
  EXPECT_EQ(links,
            gossip_activated_links(cfg, t.graph, epoch, round, t.alive));

  std::set<topology::NodeId> touched;
  std::set<ActivatedLink> seen;
  for (const auto& [u, v] : links) {
    EXPECT_LT(u, v);  // normalized and, with sortedness, duplicate-free
    EXPECT_TRUE(edge_exists(t.graph, u, v))
        << "activated non-edge " << u << "-" << v;
    EXPECT_TRUE(t.alive[u] && t.alive[v])
        << "activated dead endpoint on " << u << "-" << v;
    EXPECT_TRUE(seen.insert({u, v}).second);
    if (cfg.mode == GossipMode::kMatching) {
      EXPECT_TRUE(touched.insert(u).second)
          << "node " << u << " matched twice";
      EXPECT_TRUE(touched.insert(v).second)
          << "node " << v << " matched twice";
    }
  }
  EXPECT_TRUE(std::is_sorted(links.begin(), links.end()));

  // The effective mixing matrix: symmetric, doubly stochastic,
  // non-negative, identity on every non-activated row — and still a
  // feasible matrix for the full topology (activated support ⊆ edges).
  const linalg::Matrix w =
      oracle::activated_mixing_matrix(t.graph.node_count(), links, t.alive);
  const std::size_t n = t.graph.node_count();
  constexpr double kTol = 1e-12;
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    double col_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(w(i, j), w(j, i), kTol);
      EXPECT_GE(w(i, j), -kTol);
      row_sum += w(i, j);
      col_sum += w(j, i);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-9) << "row " << i;
    EXPECT_NEAR(col_sum, 1.0, 1e-9) << "column " << i;
    if (!touched.contains(i) && cfg.mode == GossipMode::kMatching) {
      EXPECT_EQ(w(i, i), 1.0) << "non-activated row " << i;
    }
  }
  // Identity rows for every node no activated link touches (both modes).
  std::vector<bool> activated(n, false);
  for (const auto& [u, v] : links) activated[u] = activated[v] = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (activated[i]) continue;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(w(i, j), i == j ? 1.0 : 0.0);
    }
  }
  EXPECT_TRUE(consensus::is_feasible_weight_matrix(w, t.graph, 1e-9));
}

TEST(GossipMixingPropertyTest, HundredRandomTriplesBothModes) {
  common::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 100; ++trial) {
    common::Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const Triple t = random_triple(trial_rng);
    for (const GossipMode mode :
         {GossipMode::kMatching, GossipMode::kPushPull}) {
      GossipConfig cfg;
      cfg.mode = mode;
      cfg.fanout = 1 + static_cast<std::size_t>(trial % 3);
      cfg.seed = t.seed;
      // A few (epoch, round) probes per triple keeps the suite fast
      // while still exercising the epoch re-randomization.
      check_activation_invariants(t, cfg, /*epoch=*/0, /*round=*/1);
      check_activation_invariants(t, cfg, /*epoch=*/0,
                                  /*round=*/17 + trial);
      check_activation_invariants(t, cfg, /*epoch=*/3,
                                  /*round=*/17 + trial);
    }
  }
}

TEST(GossipMixingPropertyTest, ScheduleVariesAcrossRoundsAndEpochs) {
  // Anti-constant-schedule guard: over 20 rounds on a healthy graph the
  // matching scheduler must produce more than one distinct activation
  // set, and changing the epoch must change at least one round's set.
  common::Rng topo(7);
  const auto graph = topology::make_random_connected(12, 3.0, topo);
  GossipConfig cfg;
  cfg.seed = 99;
  std::set<std::vector<ActivatedLink>> distinct;
  bool epoch_differs = false;
  for (std::size_t round = 1; round <= 20; ++round) {
    const auto links = gossip_activated_links(cfg, graph, 0, round, {});
    EXPECT_FALSE(links.empty());
    distinct.insert(links);
    if (links != gossip_activated_links(cfg, graph, 1, round, {})) {
      epoch_differs = true;
    }
  }
  EXPECT_GT(distinct.size(), 1u);
  EXPECT_TRUE(epoch_differs);

  // Maximality: no alive edge with both endpoints unmatched may remain
  // (greedy maximal matching — otherwise a round silently under-mixes).
  for (std::size_t round = 1; round <= 20; ++round) {
    const auto links = gossip_activated_links(cfg, graph, 0, round, {});
    std::vector<bool> matched(graph.node_count(), false);
    for (const auto& [u, v] : links) matched[u] = matched[v] = true;
    for (const auto& [u, v] : graph.edges()) {
      EXPECT_TRUE(matched[u] || matched[v])
          << "edge " << u << "-" << v << " left idle at round " << round;
    }
  }
}

TEST(GossipMixingPropertyTest, PushPullFanoutBoundsActivatedDegree) {
  // Each node initiates at most `fanout` links; with symmetrization a
  // node's activated degree is bounded by fanout + the picks of its
  // neighbors, and every alive node with an alive neighbor activates at
  // least one link (it always gets to pick).
  common::Rng topo(11);
  const auto graph = topology::make_random_connected(16, 3.0, topo);
  GossipConfig cfg;
  cfg.mode = GossipMode::kPushPull;
  cfg.fanout = 2;
  cfg.seed = 5;
  for (std::size_t round = 1; round <= 10; ++round) {
    const auto links = gossip_activated_links(cfg, graph, 0, round, {});
    std::vector<std::size_t> degree(graph.node_count(), 0);
    for (const auto& [u, v] : links) {
      ++degree[u];
      ++degree[v];
    }
    for (topology::NodeId i = 0; i < graph.node_count(); ++i) {
      EXPECT_GE(degree[i],
                std::min<std::size_t>(cfg.fanout,
                                      graph.neighbors(i).size()));
      EXPECT_LE(degree[i], graph.neighbors(i).size());
    }
  }
}

}  // namespace
}  // namespace snap::runtime
