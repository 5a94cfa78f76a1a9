// LinkFailureModel contract tests: seeded determinism, empirical
// down-rate matching the configured probability, and the non-adjacent
// query contract (no link, nothing to fail).
#include "oracle/link_failure.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"

namespace snap::oracle {
namespace {

topology::Graph ring(std::size_t n) { return topology::make_ring(n); }

TEST(LinkFailureTest, SameSeedSameSchedule) {
  const auto g = ring(12);
  LinkFailureModel a(g, 0.3, common::Rng(77));
  LinkFailureModel b(g, 0.3, common::Rng(77));
  for (int round = 0; round < 50; ++round) {
    a.advance_round();
    b.advance_round();
    ASSERT_EQ(a.down_count(), b.down_count());
    for (const auto& [u, v] : g.edges()) {
      ASSERT_EQ(a.is_down(u, v), b.is_down(u, v))
          << "round " << round << " link {" << u << "," << v << "}";
    }
  }
}

TEST(LinkFailureTest, DifferentSeedsDiverge) {
  const auto g = ring(12);
  LinkFailureModel a(g, 0.3, common::Rng(77));
  LinkFailureModel b(g, 0.3, common::Rng(78));
  bool any_difference = false;
  for (int round = 0; round < 50 && !any_difference; ++round) {
    a.advance_round();
    b.advance_round();
    for (const auto& [u, v] : g.edges()) {
      if (a.is_down(u, v) != b.is_down(u, v)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(LinkFailureTest, EmpiricalRateMatchesProbability) {
  const auto g = ring(20);  // 20 edges
  const double p = 0.2;
  LinkFailureModel model(g, p, common::Rng(2020));
  const std::size_t rounds = 3000;
  std::size_t down = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    model.advance_round();
    down += model.down_count();
  }
  const double rate =
      static_cast<double>(down) /
      static_cast<double>(rounds * g.edge_count());
  // 60k Bernoulli draws: the sample rate sits within a few standard
  // errors (sigma ~ 0.0016) of p; 0.015 is > 9 sigma.
  EXPECT_NEAR(rate, p, 0.015);
}

TEST(LinkFailureTest, ExtremeProbabilitiesAreDegenerate) {
  const auto g = ring(10);
  LinkFailureModel never(g, 0.0, common::Rng(1));
  LinkFailureModel always(g, 1.0, common::Rng(1));
  for (int round = 0; round < 20; ++round) {
    never.advance_round();
    always.advance_round();
    EXPECT_EQ(never.down_count(), 0u);
    EXPECT_EQ(always.down_count(), g.edge_count());
  }
}

TEST(LinkFailureTest, NonAdjacentPairsAreNeverDown) {
  // Even at probability 1, a pair without a link has nothing to fail.
  const auto g = ring(10);
  LinkFailureModel model(g, 1.0, common::Rng(5));
  for (int round = 0; round < 10; ++round) {
    model.advance_round();
    EXPECT_FALSE(model.is_down(0, 5));
    EXPECT_FALSE(model.is_down(2, 7));
    EXPECT_FALSE(model.is_down(3, 3));  // self pair
    EXPECT_TRUE(model.is_down(0, 1));   // the ring edge, for contrast
    EXPECT_TRUE(model.is_down(1, 0));   // symmetric query
  }
}

TEST(LinkFailureTest, ProbabilityIsClamped) {
  const auto g = ring(6);
  LinkFailureModel low(g, -0.5, common::Rng(9));
  LinkFailureModel high(g, 7.0, common::Rng(9));
  EXPECT_EQ(low.failure_probability(), 0.0);
  EXPECT_EQ(high.failure_probability(), 1.0);
}

}  // namespace
}  // namespace snap::oracle
