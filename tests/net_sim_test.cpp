#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/cost_model.hpp"
#include "net/mailbox.hpp"
#include "oracle/link_failure.hpp"
#include "topology/generators.hpp"

namespace snap::net {
namespace {

using oracle::LinkFailureModel;

// ------------------------------------------------------------ HopMatrix

TEST(HopMatrixTest, LineDistances) {
  const HopMatrix hops(topology::make_line(4));
  EXPECT_EQ(hops.hops(0, 0), 0u);
  EXPECT_EQ(hops.hops(0, 3), 3u);
  EXPECT_EQ(hops.hops(3, 0), 3u);
  EXPECT_EQ(hops.hops(1, 2), 1u);
}

TEST(HopMatrixTest, RequiresConnectedGraph) {
  topology::Graph g(2);
  EXPECT_THROW(HopMatrix{g}, common::ContractViolation);
}

// ----------------------------------------------------------- CostTracker

TEST(CostTrackerTest, ChargesBytesTimesHops) {
  CostTracker tracker{HopMatrix(topology::make_line(3))};  // 0-1-2
  tracker.record_flow(0, 2, 100);                          // 2 hops
  EXPECT_EQ(tracker.total_bytes(), 100u);
  EXPECT_EQ(tracker.total_cost(), 200u);
  tracker.record_flow(1, 2, 50);  // 1 hop
  EXPECT_EQ(tracker.total_bytes(), 150u);
  EXPECT_EQ(tracker.total_cost(), 250u);
}

TEST(CostTrackerTest, SelfFlowIsFree) {
  CostTracker tracker{HopMatrix(topology::make_line(3))};
  tracker.record_flow(1, 1, 999);
  EXPECT_EQ(tracker.total_bytes(), 999u);  // bytes written to loopback
  EXPECT_EQ(tracker.total_cost(), 0u);     // no network hops
}

TEST(CostTrackerTest, IterationSeriesSnapshots) {
  CostTracker tracker{HopMatrix(topology::make_complete(3))};
  tracker.record_flow(0, 1, 10);
  tracker.end_iteration();
  tracker.record_flow(0, 2, 20);
  tracker.record_flow(1, 2, 5);
  tracker.end_iteration();
  tracker.end_iteration();  // empty iteration
  ASSERT_EQ(tracker.bytes_per_iteration().size(), 3u);
  EXPECT_EQ(tracker.bytes_per_iteration()[0], 10u);
  EXPECT_EQ(tracker.bytes_per_iteration()[1], 25u);
  EXPECT_EQ(tracker.bytes_per_iteration()[2], 0u);
  EXPECT_EQ(tracker.iteration_bytes(), 0u);
  EXPECT_EQ(tracker.total_bytes(), 35u);
}

TEST(CostTrackerTest, PerNodeInboundOutboundMaxima) {
  CostTracker tracker{HopMatrix(topology::make_complete(4))};
  tracker.record_flow(0, 3, 100);
  tracker.record_flow(1, 3, 200);
  tracker.record_flow(2, 3, 50);  // node 3 is the incast hotspot: 350 in
  tracker.record_flow(3, 0, 40);
  EXPECT_EQ(tracker.iteration_max_inbound(), 350u);   // node 3
  EXPECT_EQ(tracker.iteration_max_outbound(), 200u);  // node 1
  tracker.end_iteration();
  ASSERT_EQ(tracker.max_inbound_per_iteration().size(), 1u);
  EXPECT_EQ(tracker.max_inbound_per_iteration()[0], 350u);
  EXPECT_EQ(tracker.max_outbound_per_iteration()[0], 200u);
  // Counters reset per iteration.
  EXPECT_EQ(tracker.iteration_max_inbound(), 0u);
  tracker.record_flow(0, 1, 10);
  tracker.end_iteration();
  EXPECT_EQ(tracker.max_inbound_per_iteration()[1], 10u);
}

TEST(CostTrackerTest, SelfFlowsDoNotTouchNicCounters) {
  CostTracker tracker{HopMatrix(topology::make_complete(3))};
  tracker.record_flow(1, 1, 999);
  EXPECT_EQ(tracker.iteration_max_inbound(), 0u);
  EXPECT_EQ(tracker.iteration_max_outbound(), 0u);
}

// The pull-delivery fold: per-sender tallies through record_sent and
// per-receiver bytes through record_received, folded in a shuffled
// order, must land exactly where replaying every flow does.
TEST(CostTrackerTest, BulkChargesMatchFlowReplayInAnyOrder) {
  common::Rng rng(11);
  const topology::Graph graph = topology::make_random_connected(12, 3.0, rng);
  const std::size_t n = graph.node_count();
  const HopMatrix hops(graph);
  CostTracker replay{HopMatrix(graph)};
  CostTracker bulk{HopMatrix(graph)};
  for (int iteration = 0; iteration < 2; ++iteration) {
    struct Flow {
      topology::NodeId u, v;
      std::size_t bytes;
    };
    std::vector<Flow> flows;
    for (int k = 0; k < 60; ++k) {
      const auto u = static_cast<topology::NodeId>(rng.uniform_u64(n));
      auto v = static_cast<topology::NodeId>(rng.uniform_u64(n - 1));
      if (v >= u) ++v;  // distinct endpoints, multi-hop pairs included
      flows.push_back({u, v, 1 + rng.uniform_u64(500)});
    }
    std::vector<std::uint64_t> sent_bytes(n, 0), sent_cost(n, 0),
        received(n, 0);
    for (const Flow& f : flows) {
      replay.record_flow(f.u, f.v, f.bytes);
      sent_bytes[f.u] += f.bytes;
      sent_cost[f.u] += f.bytes * hops.hops(f.u, f.v);
      received[f.v] += f.bytes;
    }
    std::vector<topology::NodeId> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(order[i], order[rng.uniform_u64(i + 1)]);
    }
    for (const topology::NodeId u : order) {
      bulk.record_sent(u, sent_bytes[u], sent_cost[u]);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      bulk.record_received(*it, received[*it]);
    }
    EXPECT_EQ(bulk.iteration_bytes(), replay.iteration_bytes());
    EXPECT_EQ(bulk.iteration_cost(), replay.iteration_cost());
    EXPECT_EQ(bulk.iteration_max_inbound(), replay.iteration_max_inbound());
    EXPECT_EQ(bulk.iteration_max_outbound(),
              replay.iteration_max_outbound());
    replay.end_iteration();
    bulk.end_iteration();
  }
  EXPECT_EQ(bulk.total_bytes(), replay.total_bytes());
  EXPECT_EQ(bulk.total_cost(), replay.total_cost());
  EXPECT_EQ(bulk.bytes_per_iteration(), replay.bytes_per_iteration());
  EXPECT_EQ(bulk.cost_per_iteration(), replay.cost_per_iteration());
  EXPECT_EQ(bulk.max_inbound_per_iteration(),
            replay.max_inbound_per_iteration());
  EXPECT_EQ(bulk.max_outbound_per_iteration(),
            replay.max_outbound_per_iteration());
  EXPECT_GT(replay.total_cost(), replay.total_bytes());  // some multi-hop
}

// ------------------------------------------------------ LinkFailureModel

TEST(LinkFailureTest, ZeroProbabilityNeverFails) {
  const auto g = topology::make_complete(6);
  LinkFailureModel model(g, 0.0, common::Rng(1));
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(model.down_count(), 0u);
    EXPECT_FALSE(model.is_down(0, 1));
    model.advance_round();
  }
}

TEST(LinkFailureTest, FullProbabilityFailsEverything) {
  const auto g = topology::make_complete(5);
  LinkFailureModel model(g, 1.0, common::Rng(2));
  EXPECT_EQ(model.down_count(), g.edge_count());
  EXPECT_TRUE(model.is_down(0, 1));
  EXPECT_TRUE(model.is_down(1, 0));  // symmetric
}

TEST(LinkFailureTest, FailureRateMatchesProbability) {
  const auto g = topology::make_complete(20);  // 190 links
  LinkFailureModel model(g, 0.05, common::Rng(3));
  std::size_t down = 0;
  std::size_t total = 0;
  for (int round = 0; round < 200; ++round) {
    down += model.down_count();
    total += g.edge_count();
    model.advance_round();
  }
  EXPECT_NEAR(static_cast<double>(down) / static_cast<double>(total), 0.05,
              0.01);
}

TEST(LinkFailureTest, NonEdgesAreNeverDown) {
  topology::Graph g(3);
  g.add_edge(0, 1);
  LinkFailureModel model(g, 1.0, common::Rng(4));
  EXPECT_FALSE(model.is_down(0, 2));
}

TEST(LinkFailureTest, ProbabilityIsClamped) {
  const auto g = topology::make_complete(3);
  LinkFailureModel a(g, -0.5, common::Rng(5));
  EXPECT_DOUBLE_EQ(a.failure_probability(), 0.0);
  LinkFailureModel b(g, 2.0, common::Rng(5));
  EXPECT_DOUBLE_EQ(b.failure_probability(), 1.0);
}

// ----------------------------------------------------------- RoundMailbox

TEST(MailboxTest, DeliversAfterFlip) {
  RoundMailbox<int> mailbox(3);
  mailbox.post(0, 1, 42);
  EXPECT_TRUE(mailbox.inbox(1).empty());  // not yet flipped
  mailbox.flip_round();
  ASSERT_EQ(mailbox.inbox(1).size(), 1u);
  EXPECT_EQ(mailbox.inbox(1)[0].from, 0u);
  EXPECT_EQ(mailbox.inbox(1)[0].payload, 42);
}

TEST(MailboxTest, FlipClearsPreviousRound) {
  RoundMailbox<int> mailbox(2);
  mailbox.post(0, 1, 1);
  mailbox.flip_round();
  mailbox.flip_round();
  EXPECT_TRUE(mailbox.inbox(1).empty());
}

TEST(MailboxTest, MultipleSendersPreserved) {
  RoundMailbox<int> mailbox(3);
  mailbox.post(0, 2, 10);
  mailbox.post(1, 2, 20);
  mailbox.flip_round();
  ASSERT_EQ(mailbox.inbox(2).size(), 2u);
}

TEST(MailboxTest, RejectsSelfSendAndBadIds) {
  RoundMailbox<int> mailbox(2);
  EXPECT_THROW(mailbox.post(0, 0, 1), common::ContractViolation);
  EXPECT_THROW(mailbox.post(0, 2, 1), common::ContractViolation);
  EXPECT_THROW(mailbox.inbox(5), common::ContractViolation);
}

TEST(MailboxTest, MovesPayloads) {
  RoundMailbox<std::vector<int>> mailbox(2);
  std::vector<int> payload{1, 2, 3};
  mailbox.post(0, 1, std::move(payload));
  mailbox.flip_round();
  EXPECT_EQ(mailbox.inbox(1)[0].payload.size(), 3u);
}

}  // namespace
}  // namespace snap::net
