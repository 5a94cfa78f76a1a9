// Acceptance regression for elastic membership: nodes join, leave, and
// rejoin mid-run. The membership timeline is a pure function of
// (plan, seed, graph) — both fabrics must replay the identical
// alive/joined series — warm-start handoffs are charged on the wire and
// beat cold joins at equal budget, and the active mixing matrix stays
// feasible after every epoch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "consensus/weight_reprojection.hpp"
#include "core/training.hpp"
#include "experiments/scenario.hpp"
#include "net/fault_injector.hpp"
#include "net/frame.hpp"
#include "oracle/dgd.hpp"
#include "runtime/fabric.hpp"
#include "topology/generators.hpp"

namespace snap::experiments {
namespace {

ScenarioConfig membership_base() {
  ScenarioConfig cfg;
  cfg.nodes = 10;
  cfg.average_degree = 3.0;
  cfg.train_samples = 1'000;
  cfg.test_samples = 300;
  cfg.convergence.max_iterations = 200;
  cfg.convergence.loss_tolerance = 0.0;  // fixed length: runs comparable
  cfg.weight_optimizer.max_iterations = 40;
  return cfg;
}

/// Two latent joiners (ids 10, 11) arriving at rounds 40 and 80, and
/// member 3 gracefully leaving at 60 and rejoining at 120.
ScenarioConfig with_elastic_plan(ScenarioConfig cfg) {
  cfg.latent_joiners = 2;
  cfg.faults.scheduled_joins.push_back({10, 40});
  cfg.faults.scheduled_joins.push_back({11, 80});
  cfg.faults.scheduled_leaves.push_back({3, 60, 120});
  return cfg;
}

TEST(MembershipTest, JoinLeaveRejoinReplaysIdenticallyOnBothFabrics) {
  std::vector<core::TrainResult> results;
  for (const auto fabric :
       {runtime::FabricKind::kSync, runtime::FabricKind::kAsync}) {
    auto cfg = with_elastic_plan(membership_base());
    cfg.fabric = fabric;
    const Scenario scenario(cfg);
    results.push_back(scenario.run(Scheme::kSnap));
  }
  for (const auto& result : results) {
    ASSERT_EQ(result.iterations.size(), 200u);
    EXPECT_TRUE(std::isfinite(result.final_train_loss));
    EXPECT_GT(result.final_test_accuracy, 0.5);
  }

  // The scheduled plan fixes the alive-member series exactly:
  // 10 → (join@40) 11 → (leave@60) 10 → (join@80) 11 → (rejoin@120) 12.
  const auto expected_alive = [](std::size_t round) -> std::uint64_t {
    if (round < 40) return 10;
    if (round < 60) return 11;
    if (round < 80) return 10;
    if (round < 120) return 11;
    return 12;
  };
  for (std::size_t k = 0; k < 200; ++k) {
    const std::size_t round = k + 1;
    const std::uint64_t joins =
        (round == 40 || round == 80 || round == 120) ? 1 : 0;
    for (std::size_t f = 0; f < 2; ++f) {
      EXPECT_EQ(results[f].iterations[k].alive_nodes,
                expected_alive(round))
          << (f == 0 ? "sync" : "async") << " round " << round;
      EXPECT_EQ(results[f].iterations[k].nodes_joined, joins)
          << (f == 0 ? "sync" : "async") << " round " << round;
    }
  }

  // Every join triggers one STATE_SYNC handoff; the frame bytes are
  // charged identically on both fabrics (the async engine may stamp a
  // handoff one round later, so compare totals).
  std::vector<std::uint64_t> totals;
  for (const auto& result : results) {
    std::uint64_t total = 0;
    for (const auto& it : result.iterations) total += it.state_sync_bytes;
    totals.push_back(total);
  }
  const std::uint64_t dim = 25;  // credit SVM: 24 features + bias
  EXPECT_EQ(totals[0], 3 * net::state_sync_frame_bytes(dim));
  EXPECT_EQ(totals[0], totals[1]);
}

TEST(MembershipTest, ActiveMatrixStaysFeasibleAfterEveryEpoch) {
  // Drive the injector directly through a dense join/leave/crash mix
  // and re-project at every epoch boundary on its dynamic graph: the
  // healed matrix must stay symmetric doubly stochastic throughout.
  common::Rng topo_rng(42);
  auto graph = [&] {
    const auto base = topology::make_random_connected(8, 3.0, topo_rng);
    topology::Graph grown(10);
    for (const auto& [u, v] : base.edges()) grown.add_edge(u, v);
    return grown;
  }();

  net::FaultPlan plan;
  plan.latent_nodes = {8, 9};
  plan.scheduled_joins.push_back({8, 10});
  plan.join_probability = 0.05;   // node 9 arrives randomly
  plan.leave_probability = 0.02;
  plan.rejoin_probability = 0.10;
  plan.crash_probability = 0.01;
  plan.restart_probability = 0.20;
  plan.join_degree = 2;

  common::Rng rng(2020);
  net::FaultInjector injector(graph, plan, rng.fork("faults"));
  std::size_t epochs_seen = 0;
  std::size_t last_epoch = 0;
  for (std::size_t round = 1; round <= 150; ++round) {
    injector.ensure_round(round);
    const std::size_t epoch = injector.membership_epoch(round);
    if (epoch == last_epoch && round > 1) continue;
    last_epoch = epoch;
    ++epochs_seen;
    const topology::Graph& g = injector.current_graph();
    std::vector<bool> alive(g.node_count());
    for (topology::NodeId i = 0; i < g.node_count(); ++i) {
      alive[i] = injector.member(round, i) && !injector.node_down(round, i);
    }
    const auto w = consensus::reproject_weight_matrix_sparse(
        g, alive, consensus::ReprojectionMethod::kMetropolis);
    EXPECT_TRUE(consensus::is_feasible_weight_matrix(w, g))
        << "round " << round << " epoch " << epoch;
  }
  // The plan must actually exercise growth: both latent nodes join.
  EXPECT_GT(epochs_seen, 2u);
  EXPECT_TRUE(injector.member(150, 8));
  const topology::Graph& final_graph = injector.current_graph();
  EXPECT_GE(final_graph.neighbors(8).size(), 1u);
}

TEST(MembershipTest, CombinedChurnSweepConvergesOnBothFabrics) {
  // Joins, graceful leaves, rejoins, AND failure-detected crashes in one
  // run — the hardest schedule. Both fabrics must finish with a finite
  // loss and a usable model.
  for (const auto fabric :
       {runtime::FabricKind::kSync, runtime::FabricKind::kAsync}) {
    auto cfg = with_elastic_plan(membership_base());
    cfg.faults.scheduled_crashes.push_back({6, 50, 100});
    cfg.faults.leave_probability = 0.005;
    cfg.faults.rejoin_probability = 0.10;
    cfg.faults.churn_confirm_rounds = 2;
    cfg.fabric = fabric;
    const Scenario scenario(cfg);
    const auto result = scenario.run(Scheme::kSnap);
    ASSERT_EQ(result.iterations.size(), 200u);
    EXPECT_TRUE(std::isfinite(result.final_train_loss));
    EXPECT_GT(result.final_test_accuracy, 0.5)
        << "fabric " << (fabric == runtime::FabricKind::kSync ? "sync"
                                                              : "async");
  }
}

TEST(MembershipTest, GossipWithoutReprojectionRunsThroughAJoin) {
  // Without re-projection a joiner's edges never enter the node rows,
  // yet the gossip scheduler draws them from the grown graph. Such a
  // link has no slot to carry frames or mixing weight, so it must stay
  // silent (as a pruned link does) instead of reaching the row rebuild.
  auto cfg = membership_base();
  cfg.latent_joiners = 1;
  cfg.faults.scheduled_joins.push_back({10, 20});
  cfg.reproject_on_churn = false;
  cfg.fabric = runtime::FabricKind::kGossip;
  cfg.convergence.max_iterations = 80;
  const Scenario scenario(cfg);
  core::TrainResult result;
  ASSERT_NO_THROW(result = scenario.run(Scheme::kSnap));
  ASSERT_EQ(result.iterations.size(), 80u);
  EXPECT_EQ(result.iterations.back().alive_nodes, 11u);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

TEST(MembershipTest, ParameterServerHandlesJoinsAndLeaves) {
  // The PS baseline's grow path: joined workers get the current server
  // model re-pushed over a STATE_SYNC frame before their next upload.
  const auto cfg = with_elastic_plan(membership_base());
  const Scenario scenario(cfg);
  const auto result = scenario.run(Scheme::kPs);
  ASSERT_EQ(result.iterations.size(), 200u);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
  EXPECT_GT(result.final_test_accuracy, 0.5);
  std::uint64_t bytes = 0;
  for (const auto& it : result.iterations) bytes += it.state_sync_bytes;
  EXPECT_GT(bytes, 0u);
}

TEST(MembershipTest, WarmStartBeatsColdAtEqualBudget) {
  // One joiner arriving mid-run, identical workload and round budget.
  // Warm: a live neighbor donates its model over a STATE_SYNC frame
  // (bytes charged). Cold: the joiner starts from x⁰ and drags the
  // average back. Warm must not lose.
  auto run_arm = [](bool warm) {
    auto cfg = membership_base();
    cfg.latent_joiners = 1;
    cfg.faults.scheduled_joins.push_back({10, 100});
    cfg.warm_start_joins = warm;
    const Scenario scenario(cfg);
    return scenario.run(Scheme::kSnap);
  };
  const auto warm = run_arm(true);
  const auto cold = run_arm(false);

  std::uint64_t warm_bytes = 0;
  std::uint64_t cold_bytes = 0;
  for (const auto& it : warm.iterations) warm_bytes += it.state_sync_bytes;
  for (const auto& it : cold.iterations) cold_bytes += it.state_sync_bytes;
  EXPECT_EQ(warm_bytes, net::state_sync_frame_bytes(25));
  EXPECT_EQ(cold_bytes, 0u);

  ASSERT_TRUE(std::isfinite(warm.final_train_loss));
  ASSERT_TRUE(std::isfinite(cold.final_train_loss));
  // Both arms eventually reach the same plateau (EXTRA's fixed point is
  // independent of the joiner's initial value, §IV-C), so the equal-
  // budget comparison is the recovery window: mean loss over the rounds
  // after the join. The cold joiner drags the network average back
  // toward x⁰ and pays for it across the whole window.
  auto post_join_mean = [](const core::TrainResult& r) {
    double sum = 0.0;
    for (std::size_t k = 99; k < 200; ++k) sum += r.iterations[k].train_loss;
    return sum / 101.0;
  };
  const double warm_mean = post_join_mean(warm);
  const double cold_mean = post_join_mean(cold);
  std::cout << "[ margins ] post-join mean loss: warm " << warm_mean
            << "  cold " << cold_mean << "\n";
  EXPECT_LT(warm_mean, cold_mean);
}

TEST(MembershipTest, DgdGrowPathAdoptsMatrixAndParams) {
  // DGD's caller-driven membership epoch: start with node 5 absent
  // (identity row), grow by swapping in the full-membership matrix and
  // warm-starting the joiner from a neighbor. The quadratic
  // f_i(x) = ½‖x − tᵢ‖² has the shard-target mean as optimum; after the
  // grow the consensus residual must keep shrinking.
  const std::size_t n = 6;
  const auto g = topology::make_ring(n);
  std::vector<bool> initial_members(n, true);
  initial_members[5] = false;
  const auto w_initial =
      consensus::reproject_weight_matrix_sparse(
          g, initial_members, consensus::ReprojectionMethod::kMetropolis)
          .to_dense();
  const auto w_full =
      consensus::reproject_weight_matrix_sparse(
          g, std::vector<bool>(n, true),
          consensus::ReprojectionMethod::kMetropolis)
          .to_dense();

  std::vector<linalg::Vector> targets;
  std::vector<linalg::Vector> x0;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector t(2);
    t[0] = static_cast<double>(i);
    t[1] = -static_cast<double>(i);
    targets.push_back(t);
    x0.push_back(linalg::Vector(2));
  }
  oracle::DgdIteration dgd(
      w_initial, x0, /*alpha=*/0.2,
      [&](std::size_t node, const linalg::Vector& x) {
        linalg::Vector grad(2);
        grad[0] = x[0] - targets[node][0];
        grad[1] = x[1] - targets[node][1];
        return grad;
      });
  for (int k = 0; k < 30; ++k) dgd.step();

  // Membership epoch: node 5 joins, warm-started from neighbor 4.
  dgd.set_weight_matrix(w_full);
  dgd.set_params(5, dgd.params(4));
  const double residual_at_join = dgd.consensus_residual();
  for (int k = 0; k < 60; ++k) dgd.step();
  EXPECT_LT(dgd.consensus_residual(), residual_at_join);
  EXPECT_TRUE(std::isfinite(dgd.params(5)[0]));

  // The grow path validates its inputs: a non-stochastic matrix and an
  // out-of-range node are contract violations, not silent corruption.
  linalg::Matrix bad = w_full;
  bad(0, 0) += 0.25;
  EXPECT_THROW(dgd.set_weight_matrix(bad), common::ContractViolation);
  EXPECT_THROW(dgd.set_params(n, dgd.params(0)), common::ContractViolation);
}

}  // namespace
}  // namespace snap::experiments
