// Straggler-policy behaviour (paper §IV-D) and the regressions found
// while reproducing Fig. 9:
//   - stale-value anchoring perturbs EXTRA's telescoped invariant, so
//     heavy failure rates cost accuracy under kStaleValues;
//   - the kReweight policy must consult each recursion term's *own*
//     round freshness — substituting only by current freshness feeds a
//     slow exponential divergence through EXTRA's accumulator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "core/snap_node.hpp"
#include "core/snap_trainer.hpp"
#include "support/quadratic_model.hpp"
#include "topology/generators.hpp"

namespace snap::core {
namespace {

using snap::testing::QuadraticModel;
using snap::testing::point_shard;

std::vector<linalg::Vector> random_centers(std::size_t nodes,
                                           std::size_t dim,
                                           std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<linalg::Vector> centers;
  for (std::size_t i = 0; i < nodes; ++i) {
    linalg::Vector c(dim);
    for (std::size_t d = 0; d < dim; ++d) c[d] = rng.normal(0.0, 2.0);
    centers.push_back(std::move(c));
  }
  return centers;
}

std::vector<data::Dataset> point_shards(
    const std::vector<linalg::Vector>& centers) {
  std::vector<data::Dataset> shards;
  for (const auto& c : centers) shards.push_back(point_shard(c));
  return shards;
}

TrainResult run_with(const topology::Graph& graph,
                     const std::vector<linalg::Vector>& centers,
                     StragglerPolicy policy, double failure,
                     FilterMode filter, std::size_t iterations) {
  QuadraticModel model(centers.front().size());
  SnapTrainerConfig cfg;
  cfg.alpha = 0.2;
  cfg.filter = filter;
  cfg.straggler_policy = policy;
  cfg.faults = net::FaultPlan::memoryless_links(failure);
  cfg.convergence.max_iterations = iterations;
  cfg.convergence.loss_tolerance = 0.0;  // fixed-length run
  const linalg::Matrix w = consensus::max_degree_weights(graph);
  SnapTrainer trainer(graph, w, model,
                      point_shards(centers), cfg);
  return trainer.train(data::Dataset(centers.front().size(), 2));
}

// --------------------------------------------------------- SnapNode API

TEST(SnapNodeFreshnessTest, StartsFreshAfterInit) {
  QuadraticModel model(2);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0, 0.0}), {1},
                {0.5}, 0.5);
  node.set_initial(linalg::Vector{0.0, 0.0});
  EXPECT_TRUE(node.is_fresh(1));
}

TEST(SnapNodeFreshnessTest, AdvanceMarksStaleAndApplyRefreshes) {
  QuadraticModel model(2);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0, 0.0}), {1},
                {0.5}, 0.5);
  node.set_initial(linalg::Vector{0.0, 0.0});
  node.advance_views();
  EXPECT_FALSE(node.is_fresh(1));
  // An empty heartbeat frame refreshes without changing values.
  node.apply_update(1, {});
  EXPECT_TRUE(node.is_fresh(1));
  EXPECT_DOUBLE_EQ(node.view_of(1)[0], 0.0);
}

TEST(SnapNodeFreshnessTest, UnknownNeighborQueriesThrow) {
  QuadraticModel model(1);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0}), {1},
                {0.5}, 0.5);
  node.set_initial(linalg::Vector{0.0});
  EXPECT_THROW(node.is_fresh(3), common::ContractViolation);
}

TEST(SnapNodeFreshnessTest, ReweightSubstitutesOwnValueWhenStale) {
  // Two nodes; node 0 never hears from node 1. Under kReweight its
  // update folds w_01 onto itself: x¹ = (0.5+0.5)·x − α∇f.
  QuadraticModel model(1);
  SnapNode node(0, model, point_shard(linalg::Vector{2.0}), {1},
                {0.5}, 0.5, StragglerPolicy::kReweight);
  node.set_initial(linalg::Vector{1.0});
  node.advance_views();  // nothing arrives: neighbor stale
  node.compute_update(0.1);
  // x¹ = 1.0 − 0.1·(1.0 − 2.0) = 1.1 (neighbor fully replaced by self).
  EXPECT_NEAR(node.params()[0], 1.1, 1e-12);
}

TEST(SnapNodeFreshnessTest, StaleValuesPolicyUsesOldView) {
  QuadraticModel model(1);
  SnapNode node(0, model, point_shard(linalg::Vector{2.0}), {1},
                {0.5}, 0.5, StragglerPolicy::kStaleValues);
  node.set_initial(linalg::Vector{1.0});
  node.advance_views();
  node.compute_update(0.1);
  // View of neighbor is the stale x⁰ = 1.0: same value here, but the
  // view (not self) is used: x¹ = 0.5·1 + 0.5·1 − 0.1·(1−2) = 1.1 too.
  EXPECT_NEAR(node.params()[0], 1.1, 1e-12);
}

// ------------------------------------------------- end-to-end stability

TEST(StragglerPolicyTest, ReweightStaysBoundedUnderHeavyFailuresWithApe) {
  // Regression for the Fig. 9 divergence: APE filtering + 5%+ failures
  // blew the loss up exponentially when the W̃ term anchored to 2-stale
  // views. The loss must stay within a sane multiple of its start.
  common::Rng topo_rng(41);
  const auto g = topology::make_random_connected(12, 3.0, topo_rng);
  const auto centers = random_centers(12, 4, 42);
  const auto result = run_with(g, centers, StragglerPolicy::kReweight,
                               0.08, FilterMode::kApe, 400);
  const double first = result.iterations.front().train_loss;
  for (const auto& iter : result.iterations) {
    ASSERT_LT(iter.train_loss, first * 10.0) << "loss diverged";
  }
  EXPECT_LT(result.iterations.back().train_loss, first);
}

TEST(StragglerPolicyTest, ReweightBeatsStaleValuesUnderHeavyFailures) {
  common::Rng topo_rng(43);
  const auto g = topology::make_random_connected(10, 3.0, topo_rng);
  const auto centers = random_centers(10, 4, 44);
  const auto reweight = run_with(g, centers, StragglerPolicy::kReweight,
                                 0.10, FilterMode::kExactChange, 300);
  const auto stale = run_with(g, centers, StragglerPolicy::kStaleValues,
                              0.10, FilterMode::kExactChange, 300);
  // Final distance to the true optimum: the reweight policy's error
  // floor should be no worse (generally much better).
  linalg::Vector opt(4);
  for (const auto& c : centers) opt += c;
  opt *= 1.0 / static_cast<double>(centers.size());
  EXPECT_LE(linalg::max_abs_diff(reweight.final_params, opt),
            linalg::max_abs_diff(stale.final_params, opt) + 1e-6);
}

TEST(StragglerPolicyTest, PoliciesIdenticalWithoutFailures) {
  common::Rng topo_rng(45);
  const auto g = topology::make_random_connected(8, 3.0, topo_rng);
  const auto centers = random_centers(8, 3, 46);
  const auto reweight = run_with(g, centers, StragglerPolicy::kReweight,
                                 0.0, FilterMode::kSendAll, 40);
  const auto stale = run_with(g, centers, StragglerPolicy::kStaleValues,
                              0.0, FilterMode::kSendAll, 40);
  EXPECT_TRUE(linalg::approx_equal(reweight.final_params,
                                   stale.final_params, 0.0));
}

class StragglerRatePropertyTest
    : public ::testing::TestWithParam<double> {};

TEST_P(StragglerRatePropertyTest, ReweightConvergesNearOptimum) {
  const double failure = GetParam();
  common::Rng topo_rng(47);
  const auto g = topology::make_random_connected(10, 4.0, topo_rng);
  const auto centers = random_centers(10, 3, 48);
  const auto result = run_with(g, centers, StragglerPolicy::kReweight,
                               failure, FilterMode::kExactChange, 500);
  linalg::Vector opt(3);
  for (const auto& c : centers) opt += c;
  opt *= 1.0 / static_cast<double>(centers.size());
  // Error floor grows with the failure rate but stays modest.
  EXPECT_LT(linalg::max_abs_diff(result.final_params, opt),
            0.02 + failure);
}

INSTANTIATE_TEST_SUITE_P(Rates, StragglerRatePropertyTest,
                         ::testing::Values(0.0, 0.01, 0.05, 0.10, 0.20));

}  // namespace
}  // namespace snap::core
