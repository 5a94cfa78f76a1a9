// DGD baseline and the EXTRA-vs-DGD exactness gap (the quantitative
// reason the paper builds on EXTRA, §IV-A).
#include "oracle/dgd.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "core/extra.hpp"
#include "topology/generators.hpp"

namespace snap::core {
namespace {

using oracle::DgdIteration;

struct QuadraticOracle {
  std::vector<linalg::Vector> centers;

  linalg::Vector operator()(std::size_t node,
                            const linalg::Vector& x) const {
    linalg::Vector g = x;
    g -= centers[node];
    return g;
  }

  linalg::Vector optimum() const {
    linalg::Vector mean(centers.front().size());
    for (const auto& c : centers) mean += c;
    mean *= 1.0 / static_cast<double>(centers.size());
    return mean;
  }
};

QuadraticOracle random_oracle(std::size_t nodes, std::size_t dim,
                              std::uint64_t seed) {
  common::Rng rng(seed);
  QuadraticOracle oracle;
  for (std::size_t i = 0; i < nodes; ++i) {
    linalg::Vector c(dim);
    for (std::size_t d = 0; d < dim; ++d) c[d] = rng.normal(0.0, 2.0);
    oracle.centers.push_back(std::move(c));
  }
  return oracle;
}

TEST(DgdTest, ValidatesInputs) {
  auto oracle = random_oracle(3, 2, 1);
  const auto g = topology::make_ring(3);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  std::vector<linalg::Vector> init(3, linalg::Vector(2));
  EXPECT_THROW(DgdIteration(linalg::Matrix(3, 3), init, 0.1, oracle),
               common::ContractViolation);
  EXPECT_THROW(DgdIteration(w, init, 0.0, oracle),
               common::ContractViolation);
  auto ragged = init;
  ragged[2] = linalg::Vector(5);
  EXPECT_THROW(DgdIteration(w, ragged, 0.1, oracle),
               common::ContractViolation);
}

TEST(DgdTest, SingleStepClosedForm) {
  QuadraticOracle oracle;
  oracle.centers = {linalg::Vector{2.0}, linalg::Vector{4.0}};
  linalg::Matrix w{{0.5, 0.5}, {0.5, 0.5}};
  std::vector<linalg::Vector> init{linalg::Vector{0.0},
                                   linalg::Vector{2.0}};
  DgdIteration dgd(w, init, 0.1, oracle);
  dgd.step();
  // Node 0: 0.5·0 + 0.5·2 − 0.1·(0 − 2) = 1.2.
  EXPECT_NEAR(dgd.params(0)[0], 1.2, 1e-12);
  // Node 1: 1 − 0.1·(2 − 4) = 1.2.
  EXPECT_NEAR(dgd.params(1)[0], 1.2, 1e-12);
  EXPECT_EQ(dgd.iteration(), 1u);
}

/// Worst per-node distance to the optimum — the quantity DGD's O(α)
/// bias lives in (for identity-Hessian quadratics the *mean* dynamics
/// happen to be exact, so comparing means would hide the bias).
double worst_node_error(const DgdIteration& dgd,
                        const linalg::Vector& opt) {
  double worst = 0.0;
  for (std::size_t i = 0; i < dgd.node_count(); ++i) {
    worst = std::max(worst, linalg::max_abs_diff(dgd.params(i), opt));
  }
  return worst;
}

TEST(DgdTest, ConvergesToNeighborhoodOfOptimum) {
  common::Rng topo_rng(2);
  const auto g = topology::make_random_connected(8, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto oracle = random_oracle(8, 3, 3);
  DgdIteration dgd(w, std::vector<linalg::Vector>(8, linalg::Vector(3)),
                   0.05, oracle);
  for (int k = 0; k < 2000; ++k) dgd.step();
  // Within an O(α)-ball of the optimum, but (generically) not exact.
  EXPECT_LT(worst_node_error(dgd, oracle.optimum()), 0.5);
}

TEST(DgdTest, ExtraIsExactWhereDgdIsBiased) {
  // The headline property: with the same W and α, EXTRA converges to
  // the exact consensual optimum while DGD's replicas stall an O(α)
  // distance away.
  common::Rng topo_rng(4);
  const auto g = topology::make_random_connected(10, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto oracle = random_oracle(10, 3, 5);
  const double alpha = 0.1;

  DgdIteration dgd(w, std::vector<linalg::Vector>(10, linalg::Vector(3)),
                   alpha, oracle);
  ExtraIteration extra(w,
                       std::vector<linalg::Vector>(10, linalg::Vector(3)),
                       alpha, oracle);
  for (int k = 0; k < 1500; ++k) {
    dgd.step();
    extra.step();
  }
  const linalg::Vector opt = oracle.optimum();
  double extra_error = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    extra_error =
        std::max(extra_error, linalg::max_abs_diff(extra.params(i), opt));
  }
  const double dgd_error = worst_node_error(dgd, opt);
  EXPECT_LT(extra_error, 1e-8);
  EXPECT_GT(dgd_error, 1e-3);               // the bias is real…
  EXPECT_GT(dgd_error, extra_error * 100);  // …and orders louder
}

TEST(DgdTest, BiasShrinksWithStepSize) {
  common::Rng topo_rng(6);
  const auto g = topology::make_random_connected(8, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto oracle = random_oracle(8, 2, 7);
  const linalg::Vector opt = oracle.optimum();

  auto bias_at = [&](double alpha) {
    DgdIteration dgd(w, std::vector<linalg::Vector>(8, linalg::Vector(2)),
                     alpha, oracle);
    for (int k = 0; k < 4000; ++k) dgd.step();
    return worst_node_error(dgd, opt);
  };
  // O(α) bias: a smaller step leaves a smaller residual.
  EXPECT_LT(bias_at(0.05), bias_at(0.2));
}

TEST(DgdTest, DivergesOnNearPeriodicMixingMatrix) {
  // Ring topologies give eq.(24) a λ_min near −1; DGD's stability needs
  // α < (1 + λ_min)/L, so a moderate step blows up. (EXTRA's W̃ fixes
  // this — and it is why the weight optimizer's selection guards
  // λ_min.)
  const auto g = topology::make_ring(6);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto oracle = random_oracle(6, 2, 9);
  DgdIteration dgd(w, std::vector<linalg::Vector>(6, linalg::Vector(2)),
                   0.05, oracle);
  for (int k = 0; k < 500; ++k) dgd.step();
  EXPECT_GT(dgd.consensus_residual(), 1.0);  // blown up

  // The same setup with the lazy matrix W̃ = (W+I)/2 is stable.
  DgdIteration lazy(consensus::w_tilde(w),
                    std::vector<linalg::Vector>(6, linalg::Vector(2)),
                    0.05, oracle);
  for (int k = 0; k < 500; ++k) lazy.step();
  // Stable (bounded O(α) floor), in contrast to the blow-up above.
  EXPECT_LT(lazy.consensus_residual(), 1.0);
}

}  // namespace
}  // namespace snap::core
