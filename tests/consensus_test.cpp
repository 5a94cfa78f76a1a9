#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/edge_weights.hpp"
#include "consensus/mixing_spectrum.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "consensus/weight_matrix.hpp"
#include "consensus/weight_optimizer.hpp"
#include "linalg/eigen.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"

namespace snap::consensus {
namespace {

// ----------------------------------------------- max_degree_weights (24)

TEST(MaxDegreeWeightsTest, CompleteTriangle) {
  const auto g = topology::make_complete(3);
  const linalg::Matrix w = max_degree_weights(g, 0.01);
  // Off-diagonals: 1/(2 + ε); diagonal absorbs the rest.
  EXPECT_NEAR(w(0, 1), 1.0 / 2.01, 1e-12);
  EXPECT_NEAR(w(0, 0), 1.0 - 2.0 / 2.01, 1e-12);
  EXPECT_TRUE(is_feasible_weight_matrix(w, g));
}

TEST(MaxDegreeWeightsTest, StarUsesMaxDegree) {
  const auto g = topology::make_star(5);  // hub degree 4, leaves 1
  const linalg::Matrix w = max_degree_weights(g, 0.5);
  EXPECT_NEAR(w(0, 1), 1.0 / 4.5, 1e-12);
  EXPECT_NEAR(w(1, 2), 0.0, 1e-12);  // leaves not connected
  EXPECT_TRUE(is_feasible_weight_matrix(w, g));
  // Leaf diagonal: 1 − 1/4.5 stays positive.
  EXPECT_GT(w(1, 1), 0.0);
}

TEST(MaxDegreeWeightsTest, RequiresPositiveEpsilon) {
  const auto g = topology::make_complete(3);
  EXPECT_THROW(max_degree_weights(g, 0.0), common::ContractViolation);
}

class MaxDegreeWeightsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxDegreeWeightsPropertyTest, FeasibleOnRandomGraphs) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 5 + static_cast<std::size_t>(GetParam()) * 7;
  const auto g = topology::make_random_connected(n, 3.0, rng);
  const linalg::Matrix w = max_degree_weights(g);
  EXPECT_TRUE(w.is_symmetric(1e-12));
  EXPECT_TRUE(linalg::is_doubly_stochastic(w, 1e-9));
  EXPECT_TRUE(is_feasible_weight_matrix(w, g));
  // λ_max must be exactly the trivial eigenvalue 1.
  const auto spectrum = linalg::spectral_summary(w);
  EXPECT_NEAR(spectrum.lambda_max, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MaxDegreeWeightsPropertyTest,
                         ::testing::Range(0, 8));

// ------------------------------------------------------------- w_tilde

TEST(WTildeTest, AveragesWithIdentity) {
  const auto g = topology::make_ring(4);
  const linalg::Matrix w = max_degree_weights(g);
  const linalg::Matrix wt = w_tilde(w);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double expected = 0.5 * (w(i, j) + (i == j ? 1.0 : 0.0));
      EXPECT_NEAR(wt(i, j), expected, 1e-15);
    }
  }
  EXPECT_TRUE(linalg::is_doubly_stochastic(wt, 1e-9));
}

// -------------------------------------------------- feasibility checks

TEST(FeasibilityTest, RejectsWrongShape) {
  const auto g = topology::make_ring(4);
  EXPECT_FALSE(is_feasible_weight_matrix(linalg::Matrix(3, 3), g));
}

TEST(FeasibilityTest, RejectsOffSupportEntries) {
  const auto g = topology::make_line(3);  // no edge {0,2}
  linalg::Matrix w{{0.5, 0.3, 0.2}, {0.3, 0.4, 0.3}, {0.2, 0.3, 0.5}};
  EXPECT_TRUE(w.is_symmetric());
  EXPECT_TRUE(linalg::is_doubly_stochastic(w));
  EXPECT_FALSE(is_feasible_weight_matrix(w, g));
}

TEST(FeasibilityTest, RejectsAsymmetric) {
  const auto g = topology::make_complete(3);
  linalg::Matrix w{{0.5, 0.2, 0.3}, {0.3, 0.4, 0.3}, {0.2, 0.4, 0.4}};
  EXPECT_FALSE(is_feasible_weight_matrix(w, g));
}

TEST(FeasibilityTest, IdentityIsAlwaysFeasible) {
  const auto g = topology::make_ring(5);
  EXPECT_TRUE(is_feasible_weight_matrix(linalg::Matrix::identity(5), g));
}

// ------------------------------------------------------ EdgeWeightSpace

TEST(EdgeWeightSpaceTest, MatrixRoundTrip) {
  const auto g = topology::make_ring(5);
  const EdgeWeightSpace space(g);
  EXPECT_EQ(space.edge_count(), 5u);
  const linalg::Matrix w = max_degree_weights(g);
  const auto weights = space.from_matrix(w);
  EXPECT_TRUE(linalg::approx_equal(space.to_matrix(weights), w, 1e-12));
}

TEST(EdgeWeightSpaceTest, DiagonalAbsorbsSlack) {
  const auto g = topology::make_line(3);
  const EdgeWeightSpace space(g);
  const linalg::Matrix w = space.to_matrix({0.25, 0.4});
  EXPECT_NEAR(w(0, 0), 0.75, 1e-15);
  EXPECT_NEAR(w(1, 1), 1.0 - 0.25 - 0.4, 1e-15);
  EXPECT_NEAR(w(2, 2), 0.6, 1e-15);
  EXPECT_TRUE(linalg::is_doubly_stochastic(w, 1e-12));
}

TEST(EdgeWeightSpaceTest, FeasibilityPolytope) {
  const auto g = topology::make_line(3);
  const EdgeWeightSpace space(g);
  EXPECT_TRUE(space.is_feasible({0.3, 0.3}));
  EXPECT_FALSE(space.is_feasible({-0.1, 0.3}));
  // Middle node budget: 0.6 + 0.5 > 1.
  EXPECT_FALSE(space.is_feasible({0.6, 0.5}));
}

TEST(EdgeWeightSpaceTest, ProjectionIsIdentityOnFeasiblePoints) {
  const auto g = topology::make_ring(4);
  const EdgeWeightSpace space(g);
  const std::vector<double> feasible{0.2, 0.3, 0.2, 0.3};
  const auto projected = space.project(feasible);
  for (std::size_t e = 0; e < feasible.size(); ++e) {
    EXPECT_NEAR(projected[e], feasible[e], 1e-9);
  }
}

TEST(EdgeWeightSpaceTest, ProjectionClipsNegative) {
  const auto g = topology::make_line(2);
  const EdgeWeightSpace space(g);
  const auto projected = space.project({-0.7});
  EXPECT_NEAR(projected[0], 0.0, 1e-9);
}

TEST(EdgeWeightSpaceTest, ProjectionOntoSingleBudget) {
  // Node 0 in a 2-node line has one incident edge: constraint w ≤ 1.
  const auto g = topology::make_line(2);
  const EdgeWeightSpace space(g);
  const auto projected = space.project({1.8});
  EXPECT_NEAR(projected[0], 1.0, 1e-9);
}

TEST(EdgeWeightSpaceTest, ProjectionOntoSharedBudgetIsEuclidean) {
  // Star hub with two edges both at 0.8: hub budget 1.6 > 1. The exact
  // Euclidean projection subtracts 0.3 from each: (0.5, 0.5).
  const auto g = topology::make_star(3);
  const EdgeWeightSpace space(g);
  const auto projected = space.project({0.8, 0.8});
  EXPECT_NEAR(projected[0], 0.5, 1e-6);
  EXPECT_NEAR(projected[1], 0.5, 1e-6);
}

class ProjectionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProjectionPropertyTest, AlwaysProducesFeasiblePoints) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const auto g = topology::make_random_connected(12, 4.0, rng);
  const EdgeWeightSpace space(g);
  std::vector<double> raw(space.edge_count());
  for (double& w : raw) w = rng.normal(0.3, 1.0);
  const auto projected = space.project(raw);
  EXPECT_TRUE(space.is_feasible(projected, 1e-10));
  // The resulting matrix is a feasible mixing matrix.
  EXPECT_TRUE(is_feasible_weight_matrix(space.to_matrix(projected), g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionPropertyTest,
                         ::testing::Range(0, 10));

// -------------------------------------------------------- optimizers

TEST(WeightOptimizerTest, ImprovesSecondEigenvalueOnRing) {
  // Ring-8 with uniform edge weight w has λ2 = 1 − 0.5858·w, minimized
  // at the feasibility boundary w = 1/2 (λ2 ≈ 0.7071); the eq.-(24)
  // initialization sits at w = 1/2.01 (λ2 ≈ 0.7086).
  const auto g = topology::make_ring(8);
  const double init_slem =
      linalg::spectral_summary(max_degree_weights(g)).lambda_bar_max;
  const OptimizedWeights opt = minimize_second_eigenvalue(g);
  EXPECT_TRUE(is_feasible_weight_matrix(opt.w, g, 1e-8));
  EXPECT_LT(opt.objective, init_slem - 5e-4);
  EXPECT_NEAR(opt.objective, 1.0 - 0.5858 * 0.5, 5e-3);
  // Objective field matches the actual spectrum of the returned matrix.
  EXPECT_NEAR(opt.objective,
              linalg::eigenvalues_symmetric(opt.w)[g.node_count() - 2],
              1e-8);
}

TEST(WeightOptimizerTest, SlemObjectiveBalancesBothTails) {
  // On ring-8 the analytic SLEM optimum over uniform weights is at
  // w = 2/4.5858 ≈ 0.436 with SLEM ≈ 0.7445 — far below the eq.-(24)
  // initialization's 0.990 (dominated by λ_min ≈ −0.99).
  const auto g = topology::make_ring(8);
  const double init_slem =
      linalg::spectral_summary(max_degree_weights(g)).slem;
  const OptimizedWeights opt = minimize_slem(g);
  EXPECT_TRUE(is_feasible_weight_matrix(opt.w, g, 1e-8));
  EXPECT_LT(opt.objective, init_slem - 0.1);
  EXPECT_NEAR(opt.objective, 0.7445, 0.02);
}

TEST(WeightOptimizerTest, ImprovesSmallestEigenvalue) {
  common::Rng rng(7);
  const auto g = topology::make_random_connected(12, 4.0, rng);
  const double init_lmin =
      linalg::spectral_summary(max_degree_weights(g)).lambda_min;
  const OptimizedWeights opt = maximize_smallest_eigenvalue(g);
  EXPECT_TRUE(is_feasible_weight_matrix(opt.w, g, 1e-8));
  EXPECT_GE(opt.objective, init_lmin - 1e-9);
  EXPECT_NEAR(opt.objective, linalg::eigenvalues_symmetric(opt.w)[0], 1e-8);
}

TEST(WeightOptimizerTest, SelectionNeverWorseThanBaseline) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    common::Rng rng(seed);
    const auto g = topology::make_random_connected(15, 3.0, rng);
    const WeightSelection sel = select_weight_matrix(g);
    EXPECT_TRUE(is_feasible_weight_matrix(sel.w, g, 1e-8));
    EXPECT_GE(sel.score + 1e-12,
              convergence_score(max_degree_weights(g)));
    EXPECT_NEAR(sel.score, convergence_score(sel.w), 1e-9);
  }
}

TEST(WeightOptimizerTest, CompleteGraphReachesNearPerfectMixing) {
  // On K_n the consensus-optimal W is (1/n)·11ᵀ with λ̄_max = 0; the
  // optimizer should get close.
  const auto g = topology::make_complete(6);
  const OptimizedWeights opt = minimize_second_eigenvalue(g);
  EXPECT_LT(opt.objective, 0.12);
}

TEST(WeightOptimizerTest, TwoNodeSlemIsExactlySolvable) {
  // On K_2 the SLEM-optimal W is [[1/2,1/2],[1/2,1/2]]: both non-trivial
  // eigenvalue tails vanish.
  const auto g = topology::make_complete(2);
  const OptimizedWeights opt = minimize_slem(g);
  EXPECT_NEAR(opt.w(0, 1), 0.5, 0.05);
  EXPECT_LT(opt.objective, 0.05);
}

TEST(WeightOptimizerTest, DegenerateOptimaAreRejectedBySelection) {
  // Problem (22)'s literal optimum is the identity (λ_min = 1, no
  // mixing) and problem (23) alone can drive λ_min toward −1; both
  // score 0 on the convergence surrogate, so selection never deploys a
  // degenerate candidate.
  const auto g = topology::make_ring(6);
  const WeightSelection sel = select_weight_matrix(g);
  const auto spectrum = linalg::spectral_summary(sel.w);
  EXPECT_LT(spectrum.lambda_bar_max, 1.0 - 1e-3);  // actually mixes
  EXPECT_GT(spectrum.lambda_min, -1.0 + 1e-3);     // not periodic
  EXPECT_GT(sel.score, 0.0);
}

class OptimizerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerPropertyTest, BothProblemsStayFeasibleAndImprove) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 40);
  const std::size_t n = 8 + static_cast<std::size_t>(GetParam()) * 4;
  const auto g = topology::make_random_connected(n, 3.5, rng);
  const linalg::Matrix w0 = max_degree_weights(g);
  const auto s0 = linalg::spectral_summary(w0);

  WeightOptimizerConfig cfg;
  cfg.max_iterations = 120;  // keep the property sweep fast
  const OptimizedWeights slem = minimize_second_eigenvalue(g, cfg);
  EXPECT_TRUE(is_feasible_weight_matrix(slem.w, g, 1e-8));
  EXPECT_LE(slem.objective, s0.lambda_bar_max + 1e-9);

  const OptimizedWeights lmin = maximize_smallest_eigenvalue(g, cfg);
  EXPECT_TRUE(is_feasible_weight_matrix(lmin.w, g, 1e-8));
  EXPECT_GE(lmin.objective, s0.lambda_min - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerPropertyTest,
                         ::testing::Range(0, 5));

// --------------------------------------------------- convergence score

TEST(ConvergenceScoreTest, PerfectMixingBeatsIdentity) {
  const std::size_t n = 4;
  const linalg::Matrix perfect(n, n, 1.0 / static_cast<double>(n));
  EXPECT_GT(convergence_score(perfect),
            convergence_score(linalg::Matrix::identity(n)));
}

TEST(ConvergenceScoreTest, IdentityScoresZero) {
  // Identity never mixes: λ̄_max falls back to 1 → score 0.
  EXPECT_NEAR(convergence_score(linalg::Matrix::identity(3)), 0.0, 1e-9);
}

// ------------------------------------- split-brain spectral detection

/// Block-diagonal mixing matrix: perfect mixing inside each of two
/// components, zero across. Eigenvalue 1 has multiplicity 2.
linalg::Matrix two_block_mixing(std::size_t a, std::size_t b) {
  linalg::Matrix w(a + b, a + b);
  for (std::size_t i = 0; i < a; ++i) {
    for (std::size_t j = 0; j < a; ++j) {
      w(i, j) = 1.0 / static_cast<double>(a);
    }
  }
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < b; ++j) {
      w(a + i, a + j) = 1.0 / static_cast<double>(b);
    }
  }
  return w;
}

TEST(MixingExtremesTest, ConnectedMixingIsErgodic) {
  const auto g = topology::make_ring(6);
  const MixingExtremes ex = mixing_extremes(max_degree_weights(g));
  EXPECT_FALSE(ex.one_repeated);
  EXPECT_TRUE(ex.ergodic());
  EXPECT_LT(ex.lambda_bar_max, 1.0 - kOneMultiplicityTol);
  // Checked variant agrees and does not throw.
  const MixingExtremes checked =
      ergodic_mixing_extremes(max_degree_weights(g));
  EXPECT_EQ(checked.lambda_bar_max, ex.lambda_bar_max);
  EXPECT_EQ(checked.slem, ex.slem);
}

TEST(MixingExtremesTest, BlockDiagonalRaisesOneRepeatedFlag) {
  // Split-brain signature: each component contributes an invariant
  // ones-vector, so eigenvalue 1 is repeated and λ̄_max pins to 1.
  const MixingExtremes ex = mixing_extremes(two_block_mixing(3, 4));
  EXPECT_TRUE(ex.one_repeated);
  EXPECT_FALSE(ex.ergodic());
  // λ̄_max stays "largest eigenvalue strictly below 1" on the dense
  // oracle (here 0) — the flag, not λ̄_max pinning to 1, is the contract.
  EXPECT_NEAR(ex.lambda_bar_max, 0.0, 1e-9);
}

TEST(MixingExtremesTest, IdentityFlagsButNeverThrowsOnUncheckedPath) {
  // The identity (n isolated self-loops) legitimately scores 0 through
  // the unchecked query — only the checked entry points refuse it.
  const MixingExtremes ex = mixing_extremes(linalg::Matrix::identity(4));
  EXPECT_TRUE(ex.one_repeated);
  EXPECT_NEAR(convergence_score(linalg::Matrix::identity(4)), 0.0, 1e-9);
}

TEST(MixingExtremesTest, ErgodicEntryPointThrowsOnSplitBrain) {
  EXPECT_THROW((void)ergodic_mixing_extremes(two_block_mixing(2, 3)),
               DisconnectedMixingError);
  EXPECT_THROW((void)ergodic_mixing_extremes(linalg::Matrix::identity(3)),
               DisconnectedMixingError);
}

TEST(MixingExtremesTest, SparseErgodicEntryPointThrowsOnSplitBrain) {
  const auto g = topology::make_ring(4);
  std::vector<std::uint8_t> include(4, 1);
  std::vector<std::uint8_t> down(g.edge_count(), 0);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const auto [u, v] = g.edges()[e];
    down[e] = (u == 0 && v == 1) || (u == 2 && v == 3);
  }
  const auto labels = topology::connected_components(g, include, down).label;
  const std::vector<bool> alive(4, true);
  const auto split =
      SparseWeightMatrix::metropolis_on_survivors(g, alive, labels);
  EXPECT_THROW((void)ergodic_mixing_extremes(split),
               DisconnectedMixingError);
  // The healed single-component matrix passes the same gate.
  const auto whole = SparseWeightMatrix::metropolis_on_survivors(g, alive);
  EXPECT_NO_THROW((void)ergodic_mixing_extremes(whole));
}

TEST(WeightOptimizerTest, RefusesDisconnectedGraph) {
  // §IV-B preconditions: the SLEM machinery assumes one ergodic class.
  topology::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  WeightOptimizerConfig cfg;
  cfg.max_iterations = 5;
  EXPECT_THROW((void)select_weight_matrix(g, cfg),
               common::ContractViolation);
  EXPECT_THROW((void)minimize_slem(g, cfg), common::ContractViolation);
}

}  // namespace
}  // namespace snap::consensus
