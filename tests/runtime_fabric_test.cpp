// Tests for the pluggable round fabric: the sync engine's wave/
// accounting mechanics, and the async engine's parity, determinism,
// staleness, and wall-clock behavior against the sync baseline.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "experiments/scenario.hpp"
#include "runtime/async_fabric.hpp"
#include "runtime/make_fabric.hpp"
#include "runtime/sync_fabric.hpp"
#include "topology/generators.hpp"

namespace snap::runtime {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(FabricKindTest, NamesRoundTrip) {
  EXPECT_EQ(fabric_name(FabricKind::kSync), "sync");
  EXPECT_EQ(fabric_name(FabricKind::kAsync), "async");
  EXPECT_EQ(parse_fabric_kind("sync"), FabricKind::kSync);
  EXPECT_EQ(parse_fabric_kind("async"), FabricKind::kAsync);
  EXPECT_FALSE(parse_fabric_kind("half-duplex").has_value());
}

TEST(FabricKindTest, LinearComputeSpreadEndpoints) {
  const auto spread = linear_compute_spread(5, 2.0, 1.5);
  ASSERT_EQ(spread.size(), 5u);
  EXPECT_DOUBLE_EQ(spread.front(), 2.0);        // fastest node
  EXPECT_DOUBLE_EQ(spread.back(), 2.0 * 2.5);   // slowest: (1 + 1.5)x
  EXPECT_DOUBLE_EQ(linear_compute_spread(1, 2.0, 1.5).front(), 2.0);
  EXPECT_TRUE(linear_compute_spread(0, 2.0, 1.5).empty());
}

// A miniature aggregation scheme driven through the sync fabric: three
// spokes upload to a hub, the hub replies through the MessageSink, and
// the replies land in a second mix wave of the *same* round.
TEST(SyncFabricTest, WavesAccountingAndPhaseOrder) {
  const auto graph = topology::make_ring(4);
  FabricConfig config;
  config.graph = &graph;
  config.convergence.max_iterations = 1;
  config.convergence.loss_tolerance = 0.0;
  SyncFabric<int> fabric(config);

  std::vector<std::string> order;
  std::vector<std::vector<int>> hub_inbox;
  RoundHooks<int> hooks;
  hooks.node_count = 4;
  // threads = 1 (the FabricConfig default) runs every per-node phase
  // inline in node order, so `order` below is deterministic.
  hooks.parallel_collect = false;
  hooks.begin_round = [&](std::size_t round) {
    order.push_back("begin" + std::to_string(round));
  };
  hooks.local_update = [&](topology::NodeId i) {
    order.push_back("update" + std::to_string(i));
  };
  hooks.collect = [&](topology::NodeId i) {
    std::vector<Envelope<int>> out;
    if (i != 0) out.push_back({0, int(100 + i), 10});
    return out;
  };
  hooks.mix = [&](topology::NodeId i, std::span<const Delivery<int>> in,
                  MessageSink<int>& sink) {
    if (in.empty()) return;
    order.push_back("mix" + std::to_string(i));
    if (i == 0) {
      std::vector<int> values;
      for (const auto& m : in) values.push_back(m.payload);
      hub_inbox.push_back(values);
      for (topology::NodeId spoke = 1; spoke < 4; ++spoke) {
        sink.send(0, spoke, 7, 20);  // wave-2 push-back
      }
    } else {
      EXPECT_EQ(in.size(), 1u);
      EXPECT_EQ(in[0].payload, 7);
    }
  };
  hooks.evaluate = [&](std::size_t, bool) { return RoundEval{}; };

  const core::TrainResult result = fabric.run(hooks);
  // Uploads replay in sender order, so the hub sees 101, 102, 103.
  ASSERT_EQ(hub_inbox.size(), 1u);
  EXPECT_EQ(hub_inbox[0], (std::vector<int>{101, 102, 103}));
  EXPECT_EQ(order,
            (std::vector<std::string>{"begin1", "update0", "update1",
                                      "update2", "update3", "mix0", "mix1",
                                      "mix2", "mix3"}));
  // Ring of 4, hub at 0: spokes 1 and 3 are 1 hop away, spoke 2 is 2.
  EXPECT_EQ(result.total_bytes, 3u * 10 + 3u * 20);
  EXPECT_EQ(result.total_cost, (1u + 2 + 1) * 10 + (1u + 2 + 1) * 20);
  EXPECT_EQ(result.iterations.size(), 1u);
  EXPECT_GT(result.total_sim_seconds, 0.0);
}

TEST(SyncFabricTest, ReplyPingPongIsBounded) {
  FabricConfig config;
  config.convergence.max_iterations = 1;
  SyncFabric<int> fabric(config);
  RoundHooks<int> hooks;
  hooks.node_count = 2;
  hooks.collect = [](topology::NodeId i) {
    return std::vector<Envelope<int>>{{i == 0 ? 1u : 0u, 1, 0}};
  };
  hooks.mix = [](topology::NodeId i, std::span<const Delivery<int>> in,
                 MessageSink<int>& sink) {
    // Pathological hook: every delivery triggers a reply, forever.
    for (const auto& m : in) sink.send(i, m.from, m.payload, 0);
  };
  hooks.evaluate = [](std::size_t, bool) { return RoundEval{}; };
  EXPECT_THROW(fabric.run(hooks), common::ContractViolation);
}

experiments::ScenarioConfig small_scenario() {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 5;
  cfg.train_samples = 400;
  cfg.test_samples = 120;
  cfg.convergence.max_iterations = 12;
  cfg.convergence.loss_tolerance = 0.0;  // fixed-length runs
  cfg.weight_optimizer.max_iterations = 20;
  return cfg;
}

/// Async timing where transport is effectively free next to compute:
/// every round-r frame lands before any round-r+1 compute fires, which
/// reproduces the sync interleaving.
AsyncTimingConfig homogeneous_fast_links() {
  AsyncTimingConfig timing;
  timing.compute_s = 1e-3;
  timing.link_latency_s = 0.0;
  timing.nic_bandwidth_bytes_per_s = 1e12;
  return timing;
}

TEST(AsyncFabricTest, HomogeneousSnapMatchesSyncTrajectory) {
  experiments::ScenarioConfig cfg = small_scenario();
  const experiments::Scenario sync_scenario(cfg);
  const auto sync = sync_scenario.run(experiments::Scheme::kSnap);

  cfg.fabric = FabricKind::kAsync;
  cfg.async = homogeneous_fast_links();
  const experiments::Scenario async_scenario(cfg);
  const auto async = async_scenario.run(experiments::Scheme::kSnap);

  ASSERT_EQ(async.iterations.size(), sync.iterations.size());
  for (std::size_t k = 0; k < sync.iterations.size(); ++k) {
    EXPECT_NEAR(async.iterations[k].train_loss,
                sync.iterations[k].train_loss,
                1e-12 * (1.0 + std::abs(sync.iterations[k].train_loss)))
        << "iter " << k;
    EXPECT_EQ(async.iterations[k].bytes, sync.iterations[k].bytes)
        << "iter " << k;
    // Homogeneous + zero latency: nothing ever arrives late.
    EXPECT_EQ(async.iterations[k].max_frame_staleness, 0u) << "iter " << k;
  }
  EXPECT_EQ(async.total_bytes, sync.total_bytes);
  EXPECT_EQ(async.total_cost, sync.total_cost);
  EXPECT_GT(async.total_sim_seconds, 0.0);
}

TEST(AsyncFabricTest, HomogeneousPsMatchesSyncTrajectory) {
  experiments::ScenarioConfig cfg = small_scenario();
  const experiments::Scenario sync_scenario(cfg);
  const auto sync = sync_scenario.run(experiments::Scheme::kPs);

  cfg.fabric = FabricKind::kAsync;
  cfg.async = homogeneous_fast_links();
  const experiments::Scenario async_scenario(cfg);
  const auto async = async_scenario.run(experiments::Scheme::kPs);

  ASSERT_EQ(async.iterations.size(), sync.iterations.size());
  for (std::size_t k = 0; k < sync.iterations.size(); ++k) {
    EXPECT_NEAR(async.iterations[k].train_loss,
                sync.iterations[k].train_loss,
                1e-12 * (1.0 + std::abs(sync.iterations[k].train_loss)))
        << "iter " << k;
    EXPECT_EQ(async.iterations[k].bytes, sync.iterations[k].bytes)
        << "iter " << k;
  }
  EXPECT_NEAR(async.final_train_loss, sync.final_train_loss,
              1e-12 * (1.0 + std::abs(sync.final_train_loss)));
}

TEST(AsyncFabricTest, HeterogeneousRunsAreDeterministic) {
  experiments::ScenarioConfig cfg = small_scenario();
  cfg.fabric = FabricKind::kAsync;
  cfg.async.compute_s = 1e-3;
  cfg.async.node_compute_s =
      linear_compute_spread(cfg.nodes, 1e-3, 2.0);
  cfg.async.compute_jitter = 0.2;  // exercises the rng streams
  cfg.async.seed = 7;

  const auto run_once = [&cfg] {
    const experiments::Scenario scenario(cfg);
    return scenario.run(experiments::Scheme::kSnap);
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t k = 0; k < a.iterations.size(); ++k) {
    EXPECT_TRUE(same_bits(a.iterations[k].train_loss,
                          b.iterations[k].train_loss))
        << "iter " << k;
    EXPECT_TRUE(same_bits(a.iterations[k].sim_seconds,
                          b.iterations[k].sim_seconds))
        << "iter " << k;
    EXPECT_EQ(a.iterations[k].bytes, b.iterations[k].bytes) << "iter " << k;
    EXPECT_EQ(a.iterations[k].max_frame_staleness,
              b.iterations[k].max_frame_staleness)
        << "iter " << k;
  }
  EXPECT_TRUE(same_bits(a.total_sim_seconds, b.total_sim_seconds));
}

TEST(AsyncFabricTest, SimSecondsAreMonotoneInBothFabrics) {
  experiments::ScenarioConfig cfg = small_scenario();
  for (const FabricKind kind : {FabricKind::kSync, FabricKind::kAsync}) {
    cfg.fabric = kind;
    cfg.async = homogeneous_fast_links();
    const experiments::Scenario scenario(cfg);
    const auto result = scenario.run(experiments::Scheme::kSnap);
    double last = 0.0;
    for (const auto& stat : result.iterations) {
      EXPECT_GE(stat.sim_seconds, last) << fabric_name(kind);
      last = stat.sim_seconds;
    }
    EXPECT_GT(last, 0.0);
    EXPECT_DOUBLE_EQ(result.total_sim_seconds, last);
  }
}

TEST(AsyncFabricTest, HeterogeneityProducesStalenessUnlessBounded) {
  experiments::ScenarioConfig cfg = small_scenario();
  cfg.convergence.max_iterations = 30;
  cfg.fabric = FabricKind::kAsync;
  cfg.async = homogeneous_fast_links();
  // Strong spread: the slowest node takes 3x the fastest's time, so
  // fast nodes run rounds ahead and slow frames land stale. Free-run
  // mode: the default neighborhood pacing gate would hold staleness
  // at zero.
  cfg.async_free_run = true;
  cfg.async.node_compute_s =
      linear_compute_spread(cfg.nodes, 1e-3, 2.0);

  const experiments::Scenario free_running(cfg);
  const auto unbounded = free_running.run(experiments::Scheme::kSnap);
  std::uint64_t unbounded_max = 0;
  for (const auto& stat : unbounded.iterations) {
    unbounded_max = std::max(unbounded_max, stat.max_frame_staleness);
  }
  EXPECT_GE(unbounded_max, 2u);

  cfg.async.max_staleness_rounds = 1;
  const experiments::Scenario gated(cfg);
  const auto bounded = gated.run(experiments::Scheme::kSnap);
  std::uint64_t bounded_max = 0;
  for (const auto& stat : bounded.iterations) {
    bounded_max = std::max(bounded_max, stat.max_frame_staleness);
  }
  // The SSP gate caps how far a node may run ahead of a neighbor
  // (max_staleness_rounds + 1 rounds), which caps frame staleness.
  EXPECT_LE(bounded_max, 3u);
  EXPECT_LT(bounded_max, unbounded_max);
}

TEST(AsyncFabricTest, NeighborhoodPacingKeepsHeterogeneousSnapStable) {
  // EXTRA's corrected recursion assumes aligned view snapshots; under
  // free-running heterogeneous timing the persistent skew makes its
  // accumulator diverge. The default neighborhood pacing gate (each
  // node waits for a frame from every neighbor since its last update)
  // must keep the heterogeneous trajectory on the sync one.
  experiments::ScenarioConfig cfg = small_scenario();
  cfg.convergence.max_iterations = 30;
  const experiments::Scenario sync_scenario(cfg);
  const auto sync = sync_scenario.run(experiments::Scheme::kSnap);

  cfg.fabric = FabricKind::kAsync;
  cfg.async = homogeneous_fast_links();
  cfg.async.node_compute_s =
      linear_compute_spread(cfg.nodes, 1e-3, 2.0);
  cfg.async.compute_jitter = 0.1;
  const experiments::Scenario paced_scenario(cfg);
  const auto paced = paced_scenario.run(experiments::Scheme::kSnap);

  // Not bitwise (arrival order differs) but the same optimization: the
  // paced run must land within a few percent of the sync loss rather
  // than the orders-of-magnitude blowup free-running produces.
  EXPECT_LT(paced.final_train_loss,
            1.10 * sync.final_train_loss + 1e-6);
  std::uint64_t max_stale = 0;
  for (const auto& stat : paced.iterations) {
    max_stale = std::max(max_stale, stat.max_frame_staleness);
  }
  // The gate paces neighborhoods, it does not barrier the graph: a
  // fast node may still be one round ahead of a distant slow one.
  EXPECT_LE(max_stale, 1u);
}

TEST(AsyncFabricTest, SnapBeatsPsOnWallClockUnderHeterogeneity) {
  // The headline scenario: same workload, same heterogeneous nodes,
  // same fixed round count. The PS round is a barrier (slowest worker +
  // incast at the server), while SNAP's nodes free-run — so SNAP's
  // simulated wall clock must come out ahead.
  experiments::ScenarioConfig cfg = small_scenario();
  cfg.fabric = FabricKind::kAsync;
  cfg.async.compute_s = 1e-3;
  cfg.async.node_compute_s =
      linear_compute_spread(cfg.nodes, 1e-3, 2.0);
  cfg.async.link_latency_s = 1e-3;
  cfg.async.nic_bandwidth_bytes_per_s = 1e9 / 8.0;
  const experiments::Scenario scenario(cfg);
  const auto snap = scenario.run(experiments::Scheme::kSnap);
  const auto ps = scenario.run(experiments::Scheme::kPs);
  ASSERT_EQ(snap.iterations.size(), ps.iterations.size());
  EXPECT_LT(snap.total_sim_seconds, ps.total_sim_seconds);
}

TEST(AsyncFabricTest, RejectsBadTimingConfigs) {
  FabricConfig config;
  AsyncTimingConfig timing;
  timing.compute_s = 0.0;
  EXPECT_THROW((AsyncFabric<int>(config, timing)),
               common::ContractViolation);
  timing = {};
  timing.nic_bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW((AsyncFabric<int>(config, timing)),
               common::ContractViolation);
  timing = {};
  timing.compute_jitter = 1.0;
  EXPECT_THROW((AsyncFabric<int>(config, timing)),
               common::ContractViolation);
  timing = {};
  timing.node_compute_s = {1e-3, 1e-3};  // wrong length for 3 nodes
  AsyncFabric<int> fabric(config, timing);
  RoundHooks<int> hooks;
  hooks.node_count = 3;
  hooks.evaluate = [](std::size_t, bool) { return RoundEval{}; };
  EXPECT_THROW(fabric.run(hooks), common::ContractViolation);
}

}  // namespace
}  // namespace snap::runtime
