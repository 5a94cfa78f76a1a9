// Tests for the pluggable round fabric: the sync engine's wave/
// accounting mechanics, and the async engine's parity, determinism,
// staleness, and wall-clock behavior against the sync baseline.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
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

// --------------------------------------------- pull vs serial delivery
//
// The same synthetic scheme through the sim transport twice: once with a
// parallel collect (receivers pull their one-hop frames) and once with a
// serial collect (frames posted and charged in node order). Every inbox
// and every charged column must agree bit for bit, round by round, under
// link bursts, crashes and corruption. A latent join's churn hook posts
// a STATE_SYNC handoff: it takes the serial post on both paths, and on
// the pull path the joiner's pulled frames must land after it.

using Payload = std::uint64_t;

struct Received {
  std::size_t round;
  topology::NodeId from;
  Payload payload;
  bool operator==(const Received&) const = default;
};

struct DeliveryTrace {
  std::vector<std::vector<Received>> inboxes;  // by receiver
  core::TrainResult result;
};

constexpr std::size_t kParityNodes = 14;
constexpr topology::NodeId kJoiner = kParityNodes - 1;

/// A connected graph on every node but the last, which stays isolated
/// until its scheduled join attaches it.
topology::Graph parity_graph() {
  common::Rng rng(3);
  const topology::Graph core =
      topology::make_random_connected(kParityNodes - 1, 3.0, rng);
  topology::Graph graph(kParityNodes);
  for (const auto& [u, v] : core.edges()) graph.add_edge(u, v);
  return graph;
}

net::FaultPlan parity_faults() {
  net::FaultPlan plan;
  plan.link_enter_burst = 0.15;
  plan.link_exit_burst = 0.5;
  plan.scheduled_crashes = {{2, 3, 6}, {7, 5, 0}};
  plan.frame_corruption_probability = 0.1;
  plan.latent_nodes = {kJoiner};
  plan.scheduled_joins = {{kJoiner, 4}};
  return plan;
}

/// What a misbehaving collect adds to node 0's frames every round.
enum class Stray {
  kNone,
  kNonNeighbor,  ///< a frame to a node that is not a neighbor
  kStateSync,    ///< a STATE_SYNC frame, which only epoch hooks send
};

DeliveryTrace run_delivery(bool parallel_collect, Stray stray = Stray::kNone) {
  const topology::Graph graph = parity_graph();
  net::FaultInjector faults(graph, parity_faults(), common::Rng(99));
  FabricConfig config;
  config.graph = &graph;
  config.threads = 4;
  config.faults = &faults;
  config.convergence.max_iterations = 10;
  config.convergence.min_iterations = 10;
  config.convergence.loss_tolerance = 0.0;
  SyncFabric<Payload> fabric(config);

  DeliveryTrace trace;
  trace.inboxes.resize(kParityNodes);
  std::size_t current = 0;
  RoundHooks<Payload> hooks;
  hooks.node_count = kParityNodes;
  hooks.parallel_collect = parallel_collect;
  hooks.begin_round = [&](std::size_t round) { current = round; };
  hooks.collect = [&](topology::NodeId i) {
    // One frame per current neighbor, a second one to every third, and
    // a free co-located hand-off now and then.
    std::vector<Envelope<Payload>> out;
    const auto& neighbors = faults.current_graph().neighbors(i);
    for (std::size_t k = neighbors.size(); k-- > 0;) {
      const topology::NodeId j = neighbors[k];
      const Payload tag = current * 1'000'000 + i * 1000 + j * 10;
      const std::size_t bytes = (i * 7 + j * 3 + current) % 40;
      out.push_back({j, tag, bytes});
      if ((i + j + current) % 3 == 0) out.push_back({j, tag + 1, 17});
    }
    if (i == 0 && stray == Stray::kNonNeighbor) {
      for (topology::NodeId j = 1; j < kParityNodes; ++j) {
        if (!faults.current_graph().has_edge(0, j)) {
          out.push_back({j, 5, 9});
          break;
        }
      }
    }
    if (i == 0 && stray == Stray::kStateSync && !neighbors.empty()) {
      out.push_back({neighbors[0], 6, 9, /*state_sync=*/true});
    }
    return out;
  };
  hooks.mix = [&](topology::NodeId i, std::span<const Delivery<Payload>> in,
                  MessageSink<Payload>&) {
    for (const auto& m : in) {
      trace.inboxes[i].push_back({current, m.from, m.payload});
    }
  };
  hooks.on_churn = [&](std::size_t round, const net::ChurnDelta& delta,
                       MessageSink<Payload>& sink) {
    for (const topology::NodeId j : delta.joined) {
      const topology::NodeId donor = faults.current_graph().neighbors(j)[0];
      sink.send(donor, j, round * 7, 250, /*state_sync=*/true);
    }
  };
  hooks.evaluate = [](std::size_t, bool) { return RoundEval{}; };
  trace.result = fabric.run(hooks);
  return trace;
}

TEST(SyncFabricTest, PullDeliveryMatchesSerialPostBitwise) {
  const DeliveryTrace pull = run_delivery(/*parallel_collect=*/true);
  const DeliveryTrace serial = run_delivery(/*parallel_collect=*/false);

  for (topology::NodeId i = 0; i < kParityNodes; ++i) {
    EXPECT_EQ(pull.inboxes[i], serial.inboxes[i]) << "node " << i;
  }
  const auto& a = pull.result.iterations;
  const auto& b = serial.result.iterations;
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(a.size(), b.size());
  std::uint64_t dropped = 0, corrupted = 0, state_sync = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].bytes, b[r].bytes) << "round " << r + 1;
    EXPECT_EQ(a[r].cost, b[r].cost) << "round " << r + 1;
    EXPECT_EQ(a[r].max_node_inbound_bytes, b[r].max_node_inbound_bytes)
        << "round " << r + 1;
    EXPECT_EQ(a[r].max_node_outbound_bytes, b[r].max_node_outbound_bytes)
        << "round " << r + 1;
    EXPECT_EQ(a[r].frames_dropped, b[r].frames_dropped) << "round " << r + 1;
    EXPECT_EQ(a[r].frames_corrupted, b[r].frames_corrupted)
        << "round " << r + 1;
    EXPECT_EQ(a[r].state_sync_bytes, b[r].state_sync_bytes)
        << "round " << r + 1;
    dropped += a[r].frames_dropped;
    corrupted += a[r].frames_corrupted;
    state_sync += a[r].state_sync_bytes;
  }
  EXPECT_EQ(pull.result.total_bytes, serial.result.total_bytes);
  EXPECT_EQ(pull.result.total_cost, serial.result.total_cost);
  // The plan must actually exercise every path it is meant to cover.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(corrupted, 0u);
  EXPECT_EQ(state_sync, 250u);
  EXPECT_FALSE(pull.inboxes[kJoiner].empty());
}

TEST(SyncFabricTest, PullDeliveryRejectsFramesToNonNeighbors) {
  // The serial post routes the stray frame over several hops; the pull
  // path only ever delivers one-hop frames and must say so.
  EXPECT_NO_THROW(
      run_delivery(/*parallel_collect=*/false, Stray::kNonNeighbor));
  EXPECT_THROW(run_delivery(/*parallel_collect=*/true, Stray::kNonNeighbor),
               common::ContractViolation);
}

TEST(SyncFabricTest, PullDeliveryRejectsStateSyncFromCollect) {
  // STATE_SYNC handoffs ride the serial epoch hooks; the pull path keeps
  // no tally for them, so a collect that sends one must fail loudly.
  EXPECT_THROW(run_delivery(/*parallel_collect=*/true, Stray::kStateSync),
               common::ContractViolation);
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

// Both shared-clock fabrics time every phase once a round (epoch hooks
// also once per churn or partition epoch).
TEST(PhaseProfileTest, EveryPhaseIsTimedOnceARound) {
  for (const FabricKind kind : {FabricKind::kSync, FabricKind::kGossip}) {
    experiments::ScenarioConfig cfg = small_scenario();
    cfg.nodes = 8;
    cfg.fabric = kind;
    cfg.faults.link_enter_burst = 0.1;
    cfg.faults.link_exit_burst = 0.5;
    cfg.faults.frame_corruption_probability = 0.05;
    const core::TrainResult result =
        experiments::Scenario(cfg).run(experiments::Scheme::kSnap);

    const std::uint64_t rounds = result.iterations.size();
    ASSERT_GT(rounds, 0u) << fabric_name(kind);
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const auto phase = static_cast<Phase>(p);
      if (phase == Phase::kEpochHooks) {
        EXPECT_GE(result.profile.calls_of(phase), rounds)
            << fabric_name(kind);
      } else {
        EXPECT_EQ(result.profile.calls_of(phase), rounds)
            << fabric_name(kind) << ' ' << phase_name(phase);
      }
    }
    EXPECT_GT(result.profile.ns_of(Phase::kDelivery), 0u) << fabric_name(kind);
  }
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
