// The linear-time activation draw against the sort-based reference in
// tests/oracle/: over random graphs (2–300 nodes, mean degree 1–8),
// graphs grown by joiners whose edges are appended out of (u, v) order,
// random alive masks, epochs and rounds, in both modes, the scheduler
// must return exactly the reference's links, in the same order, also
// from one scheduler reused across graphs. The bucketed rank
// order is also checked directly on hand-built equal ranks, the only
// input on which its (u, v) tie-break decides anything.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "oracle/gossip_draw.hpp"
#include "runtime/gossip.hpp"
#include "topology/generators.hpp"

namespace snap::runtime {
namespace {

// A random connected base graph, and with probability 1/2 a few
// joiners attached to random members: their edges land at the end of
// edges(), after edges with larger ids.
topology::Graph random_graph(common::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 300));
  common::Rng topo = rng.fork("topo");
  topology::Graph base =
      topology::make_random_connected(n, rng.uniform(1.0, 8.0), topo);
  if (!rng.bernoulli(0.5)) return base;
  const auto joiners = static_cast<std::size_t>(rng.uniform_int(1, 8));
  topology::Graph grown(n + joiners);
  for (const auto& [u, v] : base.edges()) grown.add_edge(u, v);
  for (std::size_t k = 0; k < joiners; ++k) {
    const topology::NodeId joiner = n + k;
    const auto degree = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t d = 0; d < degree; ++d) {
      const auto member =
          static_cast<topology::NodeId>(rng.uniform_u64(n + k));
      if (!grown.has_edge(joiner, member)) grown.add_edge(member, joiner);
    }
  }
  return grown;
}

std::vector<bool> random_alive(common::Rng& rng, std::size_t n) {
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return {};  // everyone
    case 1:
      return std::vector<bool>(n, true);
    default: {
      std::vector<bool> alive(n);
      const double dead = rng.uniform(0.0, 0.6);
      for (std::size_t i = 0; i < n; ++i) alive[i] = !rng.bernoulli(dead);
      return alive;
    }
  }
}

TEST(GossipDrawPropertyTest, MatchesTheSortedReference) {
  common::Rng rng(2'718);
  std::size_t links = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const topology::Graph graph = random_graph(rng);
    const std::vector<bool> alive = random_alive(rng, graph.node_count());
    for (const GossipMode mode :
         {GossipMode::kMatching, GossipMode::kPushPull}) {
      GossipConfig config;
      config.mode = mode;
      config.seed = rng.uniform_u64(~0ULL);
      config.fanout = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (int draw = 0; draw < 4; ++draw) {
        const auto epoch = static_cast<std::size_t>(rng.uniform_int(0, 5));
        const auto round =
            static_cast<std::size_t>(rng.uniform_int(1, 5'000));
        const std::vector<ActivatedLink> expected =
            oracle::sorted_gossip_activated_links(config, graph, epoch,
                                                  round, alive);
        EXPECT_EQ(gossip_activated_links(config, graph, epoch, round, alive),
                  expected)
            << "trial " << trial << " mode " << gossip_mode_name(mode)
            << " n " << graph.node_count() << " epoch " << epoch
            << " round " << round;
        links += expected.size();
      }
    }
  }
  EXPECT_GT(links, 10'000u);  // the draws were not trivially empty
}

TEST(GossipDrawPropertyTest, ReusedSchedulerMatchesTheSortedReference) {
  // One scheduler per mode across every graph, as the fabric keeps it:
  // scratch left over from a larger graph must not leak into a smaller.
  common::Rng rng(1'414);
  GossipConfig matching;
  matching.seed = 99;
  GossipConfig push_pull = matching;
  push_pull.mode = GossipMode::kPushPull;
  push_pull.fanout = 2;
  GossipScheduler reused_matching(matching);
  GossipScheduler reused_push_pull(push_pull);
  for (int trial = 0; trial < 100; ++trial) {
    const topology::Graph graph = random_graph(rng);
    const std::vector<bool> alive = random_alive(rng, graph.node_count());
    const auto round = static_cast<std::size_t>(trial + 1);
    for (const auto& [config, scheduler] :
         {std::pair{&matching, &reused_matching},
          std::pair{&push_pull, &reused_push_pull}}) {
      const std::vector<ActivatedLink> expected =
          oracle::sorted_gossip_activated_links(*config, graph, 0, round,
                                                alive);
      const auto drawn = scheduler->draw(graph, 0, round, alive);
      EXPECT_TRUE(std::equal(drawn.begin(), drawn.end(), expected.begin(),
                             expected.end()))
          << "trial " << trial << " mode " << gossip_mode_name(config->mode);
    }
  }
}

bool ranked_before(const RankedEdge& a, const RankedEdge& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

TEST(GossipDrawPropertyTest, RankOrderBreaksEqualRanksOnIds) {
  // Few distinct ranks, so most edges share both a bucket and a rank,
  // plus ranks that differ only below the bucket bits.
  common::Rng rng(31);
  std::vector<RankedEdge> scratch;
  std::vector<std::uint32_t> bucket;
  for (int trial = 0; trial < 100; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(0, 200));
    const std::uint64_t top = rng.uniform_u64(~0ULL) & ~0xFFFFULL;
    std::vector<RankedEdge> edges(m);
    for (RankedEdge& e : edges) {
      e.rank = rng.bernoulli(0.5) ? top : top | rng.uniform_u64(4);
      if (rng.bernoulli(0.1)) e.rank = rng.uniform_u64(~0ULL);
      e.u = static_cast<std::uint32_t>(rng.uniform_u64(6));
      e.v = static_cast<std::uint32_t>(rng.uniform_u64(6));
    }
    std::vector<RankedEdge> expected = edges;
    std::sort(expected.begin(), expected.end(), ranked_before);
    order_by_rank(edges, scratch, bucket);
    ASSERT_EQ(edges.size(), expected.size());
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_EQ(edges[k].rank, expected[k].rank) << "trial " << trial;
      EXPECT_EQ(edges[k].u, expected[k].u) << "trial " << trial;
      EXPECT_EQ(edges[k].v, expected[k].v) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace snap::runtime
