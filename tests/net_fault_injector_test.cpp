// FaultInjector contract tests: bitwise LinkFailureModel compatibility
// for memoryless plans, query-order-independent deterministic
// schedules, Gilbert–Elliott burstiness, scheduled churn with
// confirmation windows, and the stateless corruption draw.
#include "net/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "oracle/link_failure.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"

namespace snap::net {
namespace {

using oracle::LinkFailureModel;

TEST(FaultInjectorTest, MemorylessPlanMatchesLinkFailureModelBitwise) {
  // exit == 1 − enter takes the exact LinkFailureModel sampling path:
  // the same seed must replay the same schedule, draw for draw.
  const auto g = topology::make_ring(14);
  const double p = 0.3;
  LinkFailureModel legacy(g, p, common::Rng(4242));
  FaultInjector injector(g, FaultPlan::memoryless_links(p),
                         common::Rng(4242));
  for (std::size_t round = 1; round <= 60; ++round) {
    legacy.advance_round();
    injector.ensure_round(round);
    ASSERT_EQ(injector.down_link_count(round), legacy.down_count())
        << "round " << round;
    for (const auto& [u, v] : g.edges()) {
      ASSERT_EQ(injector.link_burst_down(round, u, v), legacy.is_down(u, v))
          << "round " << round << " link {" << u << "," << v << "}";
      ASSERT_EQ(injector.link_down(round, u, v), legacy.is_down(u, v));
    }
  }
}

TEST(FaultInjectorTest, ScheduleIsDeterministicAndQueryOrderIndependent) {
  // Round r is a pure function of (plan, seed, graph): materializing
  // everything upfront and querying backwards sees the same schedule as
  // materializing lazily and querying forwards.
  const auto g = topology::make_ring(10);
  FaultPlan plan;
  plan.link_enter_burst = 0.1;
  plan.link_exit_burst = 0.4;
  plan.crash_probability = 0.05;
  plan.restart_probability = 0.3;
  FaultInjector forward(g, plan, common::Rng(99));
  FaultInjector backward(g, plan, common::Rng(99));
  backward.ensure_round(40);
  for (std::size_t round = 1; round <= 40; ++round) {
    forward.ensure_round(round);
    ASSERT_EQ(forward.down_link_count(round),
              backward.down_link_count(round));
    for (const auto& [u, v] : g.edges()) {
      ASSERT_EQ(forward.link_down(round, u, v),
                backward.link_down(round, u, v));
      ASSERT_EQ(forward.link_burst_down(round, u, v),
                backward.link_burst_down(round, u, v));
    }
    for (topology::NodeId i = 0; i < g.node_count(); ++i) {
      ASSERT_EQ(forward.node_down(round, i), backward.node_down(round, i));
      ASSERT_EQ(forward.confirmed_down(round, i),
                backward.confirmed_down(round, i));
    }
  }
}

TEST(FaultInjectorTest, BurstyChainClustersOutages) {
  // Same stationary enter rate; a sticky down state (small exit) must
  // make a down round far more likely to be followed by another down
  // round than the memoryless chain allows.
  const auto g = topology::make_ring(8);
  const std::size_t rounds = 4000;
  auto persistence = [&](double exit_p) {
    FaultPlan plan;
    plan.link_enter_burst = 0.05;
    plan.link_exit_burst = exit_p;
    FaultInjector injector(g, plan, common::Rng(7));
    injector.ensure_round(rounds);
    std::size_t down_pairs = 0;
    std::size_t down_rounds = 0;
    for (std::size_t r = 1; r < rounds; ++r) {
      for (const auto& [u, v] : g.edges()) {
        if (!injector.link_burst_down(r, u, v)) continue;
        ++down_rounds;
        if (injector.link_burst_down(r + 1, u, v)) ++down_pairs;
      }
    }
    return static_cast<double>(down_pairs) /
           static_cast<double>(down_rounds);
  };
  const double memoryless = persistence(0.95);  // exit = 1 − enter
  const double bursty = persistence(0.25);
  EXPECT_NEAR(memoryless, 0.05, 0.03);  // P(down next) = enter
  EXPECT_NEAR(bursty, 0.75, 0.06);      // P(down next) = 1 − exit
}

TEST(FaultInjectorTest, ScheduledCrashWindowWithConfirmation) {
  const auto g = topology::make_ring(6);
  FaultPlan plan;
  plan.scheduled_crashes.push_back(
      {/*node=*/2, /*crash_round=*/5, /*restart_round=*/10});
  plan.churn_confirm_rounds = 2;
  FaultInjector injector(g, plan, common::Rng(1));
  injector.ensure_round(14);

  for (std::size_t round = 1; round <= 14; ++round) {
    const bool in_window = round >= 5 && round < 10;
    EXPECT_EQ(injector.node_down(round, 2), in_window) << "round " << round;
    // Confirmation lags the crash by the confirm window: streak must
    // exceed 2, so rounds 7..9 are confirmed.
    const bool confirmed = round >= 7 && round < 10;
    EXPECT_EQ(injector.confirmed_down(round, 2), confirmed)
        << "round " << round;
    // A crashed endpoint takes the whole link down even though the
    // burst chain is inactive in this plan.
    EXPECT_EQ(injector.link_down(round, 2, 3), in_window);
    EXPECT_EQ(injector.link_burst_down(round, 2, 3), false);
    // Other nodes are untouched.
    EXPECT_FALSE(injector.node_down(round, 0));
  }

  // The membership deltas fire exactly once each, at the confirmation
  // and restart rounds.
  for (std::size_t round = 1; round <= 14; ++round) {
    const auto& delta = injector.churn_delta(round);
    if (round == 7) {
      ASSERT_EQ(delta.crashed.size(), 1u);
      EXPECT_EQ(delta.crashed[0], 2u);
      EXPECT_TRUE(delta.restarted.empty());
    } else if (round == 10) {
      ASSERT_EQ(delta.restarted.size(), 1u);
      EXPECT_EQ(delta.restarted[0], 2u);
      EXPECT_TRUE(delta.crashed.empty());
    } else {
      EXPECT_TRUE(delta.empty()) << "round " << round;
    }
  }
}

TEST(FaultInjectorTest, ShortBlipsNeverSurfaceAsChurn) {
  // A two-round outage under a two-round confirmation window is a blip:
  // no confirmation, no deltas, no re-projection trigger.
  const auto g = topology::make_ring(5);
  FaultPlan plan;
  plan.scheduled_crashes.push_back(
      {/*node=*/1, /*crash_round=*/3, /*restart_round=*/5});
  plan.churn_confirm_rounds = 2;
  FaultInjector injector(g, plan, common::Rng(1));
  injector.ensure_round(8);
  for (std::size_t round = 1; round <= 8; ++round) {
    EXPECT_FALSE(injector.confirmed_down(round, 1)) << "round " << round;
    EXPECT_TRUE(injector.churn_delta(round).empty()) << "round " << round;
  }
  EXPECT_TRUE(injector.node_down(3, 1));
  EXPECT_TRUE(injector.node_down(4, 1));
  EXPECT_FALSE(injector.node_down(5, 1));
}

TEST(FaultInjectorTest, RandomChurnRespectsRestartProbability) {
  // restart_probability == 0: a random crash is permanent.
  const auto g = topology::make_ring(12);
  FaultPlan plan;
  plan.crash_probability = 0.05;
  plan.restart_probability = 0.0;
  FaultInjector injector(g, plan, common::Rng(31));
  injector.ensure_round(200);
  for (topology::NodeId i = 0; i < g.node_count(); ++i) {
    bool seen_down = false;
    for (std::size_t round = 1; round <= 200; ++round) {
      const bool down = injector.node_down(round, i);
      if (seen_down) {
        EXPECT_TRUE(down) << "node " << i << " resurrected at " << round;
      }
      seen_down = seen_down || down;
    }
  }
  EXPECT_GT(injector.down_node_count(200), 0u);  // p=0.05 × 200 rounds
}

TEST(FaultInjectorTest, CorruptionDrawIsStatelessAndRerollsPerAttempt) {
  const auto g = topology::make_ring(6);
  FaultPlan plan;
  plan.frame_corruption_probability = 0.25;
  FaultInjector a(g, plan, common::Rng(13));
  FaultInjector b(g, plan, common::Rng(13));
  a.ensure_round(1);
  b.ensure_round(1);

  std::size_t corrupted = 0;
  std::size_t differs_by_attempt = 0;
  const std::size_t draws = 4000;
  for (std::size_t k = 0; k < draws; ++k) {
    const std::size_t round = 1 + k % 50;
    const topology::NodeId from = k % 6;
    const topology::NodeId to = (k + 1) % 6;
    const bool first = a.frame_corrupted(round, from, to, 0);
    // Same (round, link, attempt) key → same draw, in any injector with
    // the same seed, queried any number of times.
    EXPECT_EQ(first, a.frame_corrupted(round, from, to, 0));
    EXPECT_EQ(first, b.frame_corrupted(round, from, to, 0));
    if (first != a.frame_corrupted(round, from, to, 1)) {
      ++differs_by_attempt;
    }
    if (first) ++corrupted;
  }
  const double rate = static_cast<double>(corrupted) / draws;
  EXPECT_NEAR(rate, 0.25, 0.05);
  EXPECT_GT(differs_by_attempt, 0u);  // retransmissions re-roll
}

TEST(FaultInjectorTest, CorruptionExtremesAreDegenerate) {
  const auto g = topology::make_ring(4);
  FaultPlan off;
  FaultPlan always;
  always.frame_corruption_probability = 1.0;
  FaultInjector none(g, off, common::Rng(2));
  FaultInjector all(g, always, common::Rng(2));
  none.ensure_round(3);
  all.ensure_round(3);
  for (std::size_t attempt = 0; attempt < 4; ++attempt) {
    EXPECT_FALSE(none.frame_corrupted(2, 0, 1, attempt));
    EXPECT_TRUE(all.frame_corrupted(2, 0, 1, attempt));
  }
}

TEST(FaultInjectorTest, NonAdjacentPairsHaveNoBurstChain) {
  // Burst outages exist only on graph edges; for non-adjacent pairs
  // (abstract mixing flows, multi-hop PS routes) only endpoint crashes
  // can take the "link" down.
  const auto g = topology::make_ring(8);
  FaultPlan plan;
  plan.link_enter_burst = 1.0;
  plan.link_exit_burst = 0.0;
  plan.scheduled_crashes.push_back(
      {/*node=*/4, /*crash_round=*/2, /*restart_round=*/0});
  FaultInjector injector(g, plan, common::Rng(8));
  injector.ensure_round(3);
  EXPECT_FALSE(injector.link_burst_down(1, 0, 4));
  EXPECT_FALSE(injector.link_down(1, 0, 4));   // not adjacent, all alive
  EXPECT_TRUE(injector.link_down(3, 0, 4));    // endpoint 4 crashed
  EXPECT_TRUE(injector.link_burst_down(1, 0, 1));  // real edge, enter=1
}

TEST(FaultInjectorTest, RejectsInvalidScheduledCrashes) {
  const auto g = topology::make_ring(4);
  FaultPlan unknown_node;
  unknown_node.scheduled_crashes.push_back({/*node=*/9, 1, 0});
  EXPECT_THROW(FaultInjector(g, unknown_node, common::Rng(1)),
               common::ContractViolation);
  FaultPlan zero_round;
  zero_round.scheduled_crashes.push_back({/*node=*/0, 0, 0});
  EXPECT_THROW(FaultInjector(g, zero_round, common::Rng(1)),
               common::ContractViolation);
  FaultPlan inverted;
  inverted.scheduled_crashes.push_back({/*node=*/0, 5, 4});
  EXPECT_THROW(FaultInjector(g, inverted, common::Rng(1)),
               common::ContractViolation);
}

TEST(FaultInjectorPartitionTest, ScheduledBridgeCutSplitsAfterConfirmation) {
  // Ring of 6 with edges {0,1} and {3,4} cut for rounds [4, 12): the
  // ring splits into {1,2,3} and {4,5,0} once the outage persists past
  // the confirmation window.
  const auto g = topology::make_ring(6);
  FaultPlan plan;
  plan.scheduled_partitions.push_back(
      {{{0, 1}, {3, 4}}, /*start_round=*/4, /*heal_round=*/12});
  plan.partition_confirm_rounds = 1;
  FaultInjector injector(g, plan, common::Rng(3));
  EXPECT_TRUE(injector.tracks_partitions());
  injector.ensure_round(16);

  for (std::size_t round = 1; round <= 16; ++round) {
    const bool cut = round >= 4 && round < 12;
    EXPECT_EQ(injector.link_cut(round, 0, 1), cut) << "round " << round;
    EXPECT_EQ(injector.link_down(round, 3, 4), cut) << "round " << round;
    // The labeling reacts only to *sustained* outages: streak must
    // exceed the 1-round confirmation window, so the split is visible
    // from round 5; the heal at round 12 merges immediately.
    const bool split = round >= 5 && round < 12;
    EXPECT_EQ(injector.component_count(round), split ? 2u : 1u)
        << "round " << round;
    EXPECT_EQ(injector.same_component(round, 1, 3), true);
    EXPECT_EQ(injector.same_component(round, 0, 1), !split);
    EXPECT_DOUBLE_EQ(injector.largest_component_fraction(round),
                     split ? 0.5 : 1.0);
  }

  // Epoch: 0 before the split, 1 during, 2 from the merge on — and the
  // deltas fire exactly at the two change rounds.
  EXPECT_EQ(injector.partition_epoch(4), 0u);
  EXPECT_EQ(injector.partition_epoch(5), 1u);
  EXPECT_EQ(injector.partition_epoch(11), 1u);
  EXPECT_EQ(injector.partition_epoch(12), 2u);
  EXPECT_EQ(injector.partition_epoch(16), 2u);
  for (std::size_t round = 1; round <= 16; ++round) {
    const auto& delta = injector.partition_delta(round);
    if (round == 5) {
      EXPECT_FALSE(delta.empty());
      EXPECT_EQ(delta.epoch, 1u);
      EXPECT_EQ(delta.components, 2u);
      EXPECT_TRUE(delta.split);
      EXPECT_FALSE(delta.merged);
      EXPECT_TRUE(delta.healed_edges.empty());
    } else if (round == 12) {
      EXPECT_FALSE(delta.empty());
      EXPECT_EQ(delta.epoch, 2u);
      EXPECT_EQ(delta.components, 1u);
      EXPECT_TRUE(delta.merged);
      // Both previously-severed boundary edges come back at once.
      EXPECT_EQ(delta.healed_edges.size(), 2u);
    } else {
      EXPECT_TRUE(delta.empty()) << "round " << round;
    }
  }
}

TEST(FaultInjectorPartitionTest, TransientCutBelowConfirmWindowNeverSplits) {
  // A 2-round cut under a 2-round confirmation window: frames drop but
  // the component structure never reacts.
  const auto g = topology::make_ring(4);
  FaultPlan plan;
  plan.scheduled_partitions.push_back(
      {{{0, 1}, {2, 3}}, /*start_round=*/3, /*heal_round=*/5});
  plan.partition_confirm_rounds = 2;
  FaultInjector injector(g, plan, common::Rng(3));
  injector.ensure_round(8);
  for (std::size_t round = 1; round <= 8; ++round) {
    EXPECT_EQ(injector.component_count(round), 1u) << "round " << round;
    EXPECT_TRUE(injector.partition_delta(round).empty());
  }
  EXPECT_TRUE(injector.link_cut(3, 0, 1));
  EXPECT_EQ(injector.partition_epoch(8), 0u);
}

TEST(FaultInjectorPartitionTest, RandomPartitionsAreSeededAndHeal) {
  const auto g = topology::make_ring(10);
  FaultPlan plan;
  plan.partition_probability = 0.15;
  plan.partition_duration = 4;
  FaultInjector a(g, plan, common::Rng(77));
  FaultInjector b(g, plan, common::Rng(77));
  a.ensure_round(120);
  b.ensure_round(120);
  std::size_t split_rounds = 0;
  std::size_t last_epoch = 0;
  for (std::size_t round = 1; round <= 120; ++round) {
    ASSERT_EQ(a.component_count(round), b.component_count(round))
        << "round " << round;
    ASSERT_EQ(a.partition_epoch(round), b.partition_epoch(round));
    ASSERT_EQ(a.component_labels(round), b.component_labels(round));
    // Epoch is monotone.
    ASSERT_GE(a.partition_epoch(round), last_epoch);
    last_epoch = a.partition_epoch(round);
    if (a.component_count(round) > 1) ++split_rounds;
  }
  EXPECT_GT(split_rounds, 0u);        // p=0.15 over 120 rounds must fire
  EXPECT_LT(split_rounds, 120u);      // duration=4: splits always heal
  EXPECT_EQ(a.component_count(120), b.component_count(120));
}

TEST(FaultInjectorPartitionTest, MemorylessPlanDoesNotTrackComponents) {
  // Pure iid link noise (the legacy Fig. 9 knob) must not pay for — or
  // perturb — component tracking: one component, epoch 0, no labels.
  const auto g = topology::make_ring(6);
  FaultInjector injector(g, FaultPlan::memoryless_links(0.4),
                         common::Rng(5));
  EXPECT_FALSE(injector.tracks_partitions());
  injector.ensure_round(30);
  for (std::size_t round = 1; round <= 30; ++round) {
    EXPECT_EQ(injector.component_count(round), 1u);
    EXPECT_EQ(injector.partition_epoch(round), 0u);
    EXPECT_TRUE(injector.component_labels(round).empty());
    EXPECT_TRUE(injector.same_component(round, 0, 3));
  }
}

TEST(FaultInjectorPartitionTest, CrashedNodesAreExcludedFromLabels) {
  // Node 2 of a ring of 5 crashes permanently: once confirmed, the
  // remaining members form a line 3-4-0-1 — still one component — and
  // node 2 carries the excluded label.
  const auto g = topology::make_ring(5);
  FaultPlan plan;
  plan.scheduled_crashes.push_back(
      {/*node=*/2, /*crash_round=*/3, /*restart_round=*/0});
  plan.churn_confirm_rounds = 1;
  FaultInjector injector(g, plan, common::Rng(9));
  injector.ensure_round(10);
  EXPECT_EQ(injector.component_count(10), 1u);
  const auto& labels = injector.component_labels(10);
  ASSERT_EQ(labels.size(), 5u);
  EXPECT_EQ(labels[2], topology::ComponentMap::kExcluded);
  EXPECT_FALSE(injector.same_component(10, 2, 3));
  EXPECT_TRUE(injector.same_component(10, 1, 3));
  EXPECT_DOUBLE_EQ(injector.largest_component_fraction(10), 1.0);
}

TEST(FaultInjectorPartitionTest, RejectsInvalidScheduledPartitions) {
  const auto g = topology::make_ring(4);
  FaultPlan non_edge;
  non_edge.scheduled_partitions.push_back({{{0, 2}}, 1, 0});
  EXPECT_THROW(FaultInjector(g, non_edge, common::Rng(1)),
               common::ContractViolation);
  FaultPlan zero_start;
  zero_start.scheduled_partitions.push_back({{{0, 1}}, 0, 0});
  EXPECT_THROW(FaultInjector(g, zero_start, common::Rng(1)),
               common::ContractViolation);
  FaultPlan inverted;
  inverted.scheduled_partitions.push_back({{{0, 1}}, 5, 4});
  EXPECT_THROW(FaultInjector(g, inverted, common::Rng(1)),
               common::ContractViolation);
}

TEST(FaultInjectorTest, QueryBeforeMaterializationIsAContractViolation) {
  const auto g = topology::make_ring(4);
  FaultInjector injector(g, FaultPlan::memoryless_links(0.5),
                         common::Rng(1));
  EXPECT_THROW((void)injector.link_down(1, 0, 1),
               common::ContractViolation);
  injector.ensure_round(2);
  EXPECT_EQ(injector.materialized_rounds(), 2u);
  EXPECT_NO_THROW((void)injector.link_down(2, 0, 1));
  EXPECT_THROW((void)injector.link_down(3, 0, 1),
               common::ContractViolation);
}

}  // namespace
}  // namespace snap::net
