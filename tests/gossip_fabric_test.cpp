// GossipFabric determinism suite: the activation timeline and the full
// training trajectory must replay bitwise for every `threads` value,
// across reruns, and under an active FaultPlan with churn and joins —
// the schedule is a pure function of (seed, graph, membership epoch),
// never of event interleaving. Also pins the degenerate paths (schemes
// without an on_activation hook run plain sync semantics) and the
// wire-accounting contract (only activated links carry bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/parameter_server.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "core/snap_trainer.hpp"
#include "experiments/scenario.hpp"
#include "net/frame.hpp"
#include "runtime/fabric.hpp"
#include "support/bitwise_result.hpp"
#include "support/quadratic_model.hpp"
#include "topology/generators.hpp"

namespace snap::core {
namespace {

using snap::testing::QuadraticModel;
using snap::testing::expect_bitwise_equal;
using snap::testing::point_shard;

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

TrainResult run_gossip(const topology::Graph& g, const linalg::Matrix& w,
                       const ml::Model& model, std::size_t threads,
                       runtime::GossipMode mode, std::size_t fanout,
                       FilterMode filter = FilterMode::kApe) {
  SnapTrainerConfig cfg;
  cfg.alpha = 0.2;
  cfg.filter = filter;
  cfg.convergence.max_iterations = 40;
  cfg.convergence.loss_tolerance = 0.0;
  cfg.threads = threads;
  cfg.fabric = runtime::FabricKind::kGossip;
  cfg.gossip.mode = mode;
  cfg.gossip.fanout = fanout;
  SnapTrainer trainer(g, w, model,
                      random_point_shards(g.node_count(), 4, 22), cfg);
  return trainer.train(data::Dataset(4, 2));
}

TEST(GossipFabricTest, ThreadCountAndRerunInvariantBothModes) {
  const std::size_t n = 9;
  common::Rng topo_rng(21);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const QuadraticModel model(4);

  for (const auto& [mode, fanout] :
       {std::pair{runtime::GossipMode::kMatching, std::size_t{1}},
        std::pair{runtime::GossipMode::kPushPull, std::size_t{2}}}) {
    const TrainResult serial = run_gossip(g, w, model, 1, mode, fanout);
    // Every round must have drawn a non-empty activation (connected
    // graph, everyone alive), and the schedule must be genuinely
    // partial: some rounds leave links silent (a high-fanout push-pull
    // round may occasionally touch every edge, but never all rounds).
    bool any_partial = false;
    for (const auto& it : serial.iterations) {
      EXPECT_GT(it.links_activated, 0u);
      EXPECT_LE(it.links_activated, g.edge_count());
      any_partial |= it.links_activated < g.edge_count();
    }
    EXPECT_TRUE(any_partial);
    expect_bitwise_equal(serial, run_gossip(g, w, model, 4, mode, fanout));
    expect_bitwise_equal(serial, run_gossip(g, w, model, 0, mode, fanout));
    // Rerun with the identical config: bitwise replay, same timeline.
    expect_bitwise_equal(serial, run_gossip(g, w, model, 1, mode, fanout));
  }
}

TEST(GossipFabricTest, OnlyActivatedLinksAreCharged) {
  // SendAll filtering on a fault-free run makes the accounting exact:
  // every parameter changes every round, backlogs collapse to full
  // frames, so the bytes charged per round must equal
  //   2 · links_activated · encoded_frame_bytes(dim, dim)
  // — activated links carry one full frame per direction, everything
  // else stays silent.
  const std::size_t n = 8;
  common::Rng topo_rng(31);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const QuadraticModel model(4);
  const TrainResult result =
      run_gossip(g, w, model, 1, runtime::GossipMode::kMatching, 1,
                 FilterMode::kSendAll);
  const std::uint64_t per_frame = net::encoded_frame_bytes(4, 4);
  for (std::size_t k = 0; k < result.iterations.size(); ++k) {
    const auto& it = result.iterations[k];
    EXPECT_EQ(it.bytes, 2 * it.links_activated * per_frame)
        << "iter " << k + 1;
  }
}

TEST(GossipFabricTest, ReplaysBitwiseUnderChurnAndJoins) {
  // The MembershipTest elastic plan on the gossip fabric: two latent
  // joiners, a graceful leave/rejoin, and a scheduled crash, replayed
  // at three thread counts. The membership epoch folds into the
  // activation hash, so the timeline must stay bitwise identical while
  // actually churning.
  auto run = [&](std::size_t threads) {
    experiments::ScenarioConfig cfg;
    cfg.nodes = 10;
    cfg.average_degree = 3.0;
    cfg.train_samples = 1'000;
    cfg.test_samples = 300;
    cfg.convergence.max_iterations = 120;
    cfg.convergence.loss_tolerance = 0.0;
    cfg.weight_optimizer.max_iterations = 40;
    cfg.latent_joiners = 2;
    cfg.faults.scheduled_joins.push_back({10, 30});
    cfg.faults.scheduled_joins.push_back({11, 70});
    cfg.faults.scheduled_leaves.push_back({3, 50, 100});
    cfg.faults.scheduled_crashes.push_back({6, 40, 80});
    cfg.fabric = runtime::FabricKind::kGossip;
    cfg.threads = threads;
    const experiments::Scenario scenario(cfg);
    return scenario.run(experiments::Scheme::kSnap);
  };
  const TrainResult serial = run(1);
  ASSERT_EQ(serial.iterations.size(), 120u);
  EXPECT_TRUE(std::isfinite(serial.final_train_loss));
  EXPECT_GT(serial.final_test_accuracy, 0.5);
  // The run actually churned: joins happened and the activation count
  // shifted with the epochs (joiner links enter the schedule).
  std::uint64_t joined = 0;
  for (const auto& it : serial.iterations) joined += it.nodes_joined;
  EXPECT_EQ(joined, 3u);  // two first-time joins + one rejoin
  EXPECT_GT(serial.iterations.back().alive_nodes, 10u);

  expect_bitwise_equal(serial, run(4));
  expect_bitwise_equal(serial, run(0));
}

TEST(GossipFabricTest, ReplaysBitwiseUnderChurnPartitionsAndSparsify) {
  // Every gossip path that runs per node on the pool at once: joins,
  // random crashes (rows of down nodes finished after the round), link
  // bursts, random partitions (re-projection), and sparsification (the
  // pruned-link filter that node tasks judge), at three thread counts.
  auto run = [&](std::size_t threads) {
    experiments::ScenarioConfig cfg;
    cfg.nodes = 14;
    cfg.average_degree = 3.5;
    cfg.train_samples = 800;
    cfg.test_samples = 200;
    cfg.seed = 23;
    cfg.convergence.max_iterations = 90;
    cfg.convergence.loss_tolerance = 0.0;
    cfg.weight_optimizer.max_iterations = 40;
    cfg.latent_joiners = 3;
    cfg.faults.join_probability = 0.05;
    cfg.faults.crash_probability = 0.02;
    cfg.faults.restart_probability = 0.3;
    cfg.faults.link_enter_burst = 0.03;
    cfg.faults.link_exit_burst = 0.4;
    cfg.faults.partition_probability = 0.05;
    cfg.faults.partition_duration = 6;
    cfg.sparsify.enabled = true;
    cfg.sparsify.slem_bound = 1.0;
    cfg.sparsify.cost_budget = 0.75;
    cfg.fabric = runtime::FabricKind::kGossip;
    cfg.threads = threads;
    const experiments::Scenario scenario(cfg);
    return scenario.run(experiments::Scheme::kSnap);
  };
  const TrainResult serial = run(1);
  ASSERT_EQ(serial.iterations.size(), 90u);
  EXPECT_TRUE(std::isfinite(serial.final_train_loss));
  // Each process actually fired: a join, a crash, a burst, a split, a
  // pruned link.
  std::uint64_t joined = 0;
  std::uint64_t down = 0;
  std::uint64_t links_down = 0;
  std::uint64_t max_components = 0;
  std::uint64_t pruned = 0;
  for (const auto& it : serial.iterations) {
    joined += it.nodes_joined;
    down += it.nodes_down;
    links_down += it.links_down;
    max_components = std::max(max_components, it.components);
    pruned = std::max(pruned, it.links_pruned);
  }
  EXPECT_GT(joined, 0u);
  EXPECT_GT(down, 0u);
  EXPECT_GT(links_down, 0u);
  EXPECT_GT(max_components, 1u);
  EXPECT_GT(pruned, 0u);

  expect_bitwise_equal(serial, run(4));
  expect_bitwise_equal(serial, run(0));
}

TEST(GossipFabricTest, ParameterServerIgnoresActivation) {
  // The PS never sets on_activation, so the gossip fabric must run it
  // with plain sync semantics: bitwise-equal results and a zero
  // links_activated series.
  const std::size_t n = 6;
  common::Rng topo_rng(17);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const QuadraticModel model(3);
  auto run = [&](runtime::FabricKind fabric) {
    baselines::ParameterServerConfig cfg;
    cfg.alpha = 0.2;
    cfg.convergence.max_iterations = 25;
    cfg.convergence.loss_tolerance = 0.0;
    cfg.fabric = fabric;
    return baselines::train_parameter_server(
        g, model, random_point_shards(n, 3, 19), data::Dataset(3, 2), cfg);
  };
  const TrainResult sync = run(runtime::FabricKind::kSync);
  const TrainResult gossip = run(runtime::FabricKind::kGossip);
  expect_bitwise_equal(sync, gossip);
  for (const auto& it : gossip.iterations) {
    EXPECT_EQ(it.links_activated, 0u);
  }
}

}  // namespace
}  // namespace snap::core
