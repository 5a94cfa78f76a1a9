// Acceptance regression for the fault-injection runtime: a seeded node
// churn scenario (one crash + one restart on a 10-node random topology)
// must complete on both fabrics with the identical fault schedule, the
// re-projected weight matrix must stay feasible, and the self-healing
// must be load-bearing — healed loss stays near fault-free while the
// same scenario without re-projection demonstrably degrades.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "consensus/weight_matrix.hpp"
#include "consensus/weight_reprojection.hpp"
#include "core/training.hpp"
#include "experiments/scenario.hpp"
#include "net/fault_injector.hpp"
#include "runtime/fabric.hpp"
#include "topology/graph.hpp"

namespace snap::experiments {
namespace {

constexpr topology::NodeId kCrashNode = 4;
constexpr std::size_t kCrashRound = 30;
constexpr std::size_t kRestartRound = 110;

ScenarioConfig churn_base() {
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

ScenarioConfig with_churn(ScenarioConfig cfg, std::size_t restart_round) {
  cfg.faults.scheduled_crashes.push_back(
      {kCrashNode, kCrashRound, restart_round});
  cfg.faults.churn_confirm_rounds = 2;
  return cfg;
}

TEST(FaultToleranceTest, ChurnCompletesOnBothFabricsWithIdenticalSchedule) {
  std::vector<core::TrainResult> results;
  for (const auto fabric :
       {runtime::FabricKind::kSync, runtime::FabricKind::kAsync}) {
    auto cfg = with_churn(churn_base(), kRestartRound);
    cfg.fabric = fabric;
    const Scenario scenario(cfg);
    results.push_back(scenario.run(Scheme::kSnap));
  }
  for (const auto& result : results) {
    ASSERT_EQ(result.iterations.size(), 200u);
    EXPECT_TRUE(std::isfinite(result.final_train_loss));
    EXPECT_GT(result.final_test_accuracy, 0.5);
  }
  // The scheduled churn is a pure function of the round counter: both
  // fabrics must stamp the identical per-round down-node series —
  // exactly one node down for rounds [30, 110), none elsewhere.
  for (std::size_t k = 0; k < 200; ++k) {
    const std::size_t round = k + 1;
    const std::uint64_t expected =
        (round >= kCrashRound && round < kRestartRound) ? 1 : 0;
    EXPECT_EQ(results[0].iterations[k].nodes_down, expected)
        << "sync round " << round;
    EXPECT_EQ(results[1].iterations[k].nodes_down, expected)
        << "async round " << round;
  }
}

TEST(FaultToleranceTest, ReprojectedMatrixIsFeasibleOnScenarioTopology) {
  const Scenario scenario(churn_base());
  const auto& g = scenario.graph();
  std::vector<bool> alive(g.node_count(), true);
  alive[kCrashNode] = false;
  for (const auto method : {consensus::ReprojectionMethod::kMetropolis,
                            consensus::ReprojectionMethod::kOptimize}) {
    const auto w =
        consensus::reproject_weight_matrix_sparse(g, alive, method).to_dense();
    EXPECT_TRUE(consensus::is_feasible_weight_matrix(w, g));
    for (topology::NodeId j = 0; j < g.node_count(); ++j) {
      EXPECT_DOUBLE_EQ(w(kCrashNode, j), j == kCrashNode ? 1.0 : 0.0);
    }
  }
}

TEST(FaultToleranceTest, SelfHealingIsLoadBearing) {
  // All three arms run the identical workload/topology/length under the
  // paper's literal stale-values straggler reading (a dead neighbor's
  // frozen view keeps feeding the recursion, so healing must zero that
  // weight). The crash is permanent — the hardest case for healing.
  auto run_arm = [](const ScenarioConfig& cfg) {
    const Scenario scenario(cfg);
    return scenario.run_snap_variant(
        core::FilterMode::kApe, /*optimized_weights=*/true,
        /*link_failure_probability=*/0.0, cfg.convergence,
        core::StragglerPolicy::kStaleValues);
  };

  const auto fault_free = run_arm(churn_base());
  auto healed_cfg = with_churn(churn_base(), /*restart_round=*/0);
  const auto healed = run_arm(healed_cfg);
  auto unhealed_cfg = healed_cfg;
  unhealed_cfg.reproject_on_churn = false;
  const auto unhealed = run_arm(unhealed_cfg);

  ASSERT_TRUE(std::isfinite(fault_free.final_train_loss));
  ASSERT_TRUE(std::isfinite(healed.final_train_loss));
  RecordProperty("fault_free_loss", std::to_string(fault_free.final_train_loss));
  RecordProperty("healed_loss", std::to_string(healed.final_train_loss));
  RecordProperty("unhealed_loss", std::to_string(unhealed.final_train_loss));
  std::cout << "[ margins ] fault-free " << fault_free.final_train_loss
            << "  healed " << healed.final_train_loss << "  unhealed "
            << unhealed.final_train_loss << "\n";

  // Acceptance bar: healing keeps the loss within 2× of fault-free.
  EXPECT_LE(healed.final_train_loss, 2.0 * fault_free.final_train_loss);
  // Ablation: without re-projection the recursion stays anchored to the
  // dead node's frozen parameters and measurably degrades.
  EXPECT_GT(unhealed.final_train_loss, 1.05 * healed.final_train_loss);
}

// --- Partition tolerance: cut-vertex crash and bridge outage ----------
//
// Both scenarios drive the survivor set through a genuine split: the
// per-round component columns must report it, training must keep
// making progress per component, and the heal must merge back to one
// component. The schedule is a pure function of (plan, seed, graph),
// so sync and async stamp identical component series.

/// Two triangles joined through node 3 (a cut vertex): crashing it
/// splits the survivors {0,1,2} | {4,5,6}.
topology::Graph make_two_triangles() {
  topology::Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(4, 6);
  g.add_edge(5, 6);
  return g;
}

/// Two K4 cliques joined by the bridge 3–4.
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

TEST(FaultToleranceTest, CutVertexCrashSplitsAndMergesOnRestart) {
  std::vector<core::TrainResult> results;
  for (const auto fabric :
       {runtime::FabricKind::kSync, runtime::FabricKind::kAsync}) {
    ScenarioConfig cfg;
    cfg.custom_topology = make_two_triangles();
    cfg.train_samples = 700;
    cfg.test_samples = 200;
    cfg.convergence.max_iterations = 160;
    cfg.convergence.loss_tolerance = 0.0;
    cfg.weight_optimizer.max_iterations = 40;
    cfg.faults.scheduled_crashes.push_back({3, 30, 110});
    cfg.faults.churn_confirm_rounds = 2;
    cfg.fabric = fabric;
    const Scenario scenario(cfg);
    results.push_back(scenario.run(Scheme::kSnap));
  }
  for (const auto& result : results) {
    ASSERT_EQ(result.iterations.size(), 160u);
    EXPECT_TRUE(std::isfinite(result.final_train_loss));
    EXPECT_GT(result.final_test_accuracy, 0.5);
    for (std::size_t k = 0; k < 160; ++k) {
      const std::size_t round = k + 1;
      const auto& it = result.iterations[k];
      if (round <= 30 || round >= 112) {
        EXPECT_EQ(it.components, 1u) << "round " << round;
        EXPECT_DOUBLE_EQ(it.largest_component_frac, 1.0)
            << "round " << round;
      } else if (round >= 35 && round < 108) {
        // Crash confirmed (streak > 2): survivors {0,1,2} | {4,5,6}.
        EXPECT_EQ(it.components, 2u) << "round " << round;
        EXPECT_DOUBLE_EQ(it.largest_component_frac, 0.5)
            << "round " << round;
      }
      if (k > 0) {
        EXPECT_GE(it.partition_epoch,
                  result.iterations[k - 1].partition_epoch)
            << "epoch not monotone at round " << round;
      }
    }
    EXPECT_GE(result.iterations.back().partition_epoch, 2u);
  }
  // Identical schedule on both fabrics.
  for (std::size_t k = 0; k < 160; ++k) {
    EXPECT_EQ(results[0].iterations[k].components,
              results[1].iterations[k].components)
        << "round " << (k + 1);
    EXPECT_EQ(results[0].iterations[k].partition_epoch,
              results[1].iterations[k].partition_epoch)
        << "round " << (k + 1);
  }
}

TEST(FaultToleranceTest, BridgeOutageSplitsThenHealsWithProgress) {
  ScenarioConfig cfg;
  cfg.custom_topology = make_barbell();
  cfg.train_samples = 800;
  cfg.test_samples = 240;
  cfg.convergence.max_iterations = 160;
  cfg.convergence.loss_tolerance = 0.0;
  cfg.weight_optimizer.max_iterations = 40;
  net::PartitionEvent event;
  event.edges = {{3, 4}};
  event.start_round = 40;
  event.heal_round = 120;
  cfg.faults.scheduled_partitions.push_back(event);
  cfg.faults.partition_confirm_rounds = 1;
  const Scenario scenario(cfg);
  const auto result = scenario.run(Scheme::kSnap);

  ASSERT_EQ(result.iterations.size(), 160u);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
  EXPECT_GT(result.final_test_accuracy, 0.5);
  for (std::size_t k = 0; k < 160; ++k) {
    const std::size_t round = k + 1;
    const auto& it = result.iterations[k];
    if (round <= 40 || round >= 120) {
      EXPECT_EQ(it.components, 1u) << "round " << round;
    } else if (round >= 42) {
      EXPECT_EQ(it.components, 2u) << "round " << round;
      EXPECT_DOUBLE_EQ(it.largest_component_frac, 0.5)
          << "round " << round;
    }
  }
  // Per-component progress during the split: global average loss keeps
  // dropping even while the halves cannot talk.
  const double loss_at_split = result.iterations[44].train_loss;
  const double loss_pre_heal = result.iterations[115].train_loss;
  EXPECT_LT(loss_pre_heal, loss_at_split);
  // And the merge-on-heal does not blow the trajectory up: final loss
  // is the best of the three probes.
  EXPECT_LT(result.final_train_loss, loss_pre_heal);
  EXPECT_GE(result.iterations.back().partition_epoch, 2u);
}

}  // namespace
}  // namespace snap::experiments
