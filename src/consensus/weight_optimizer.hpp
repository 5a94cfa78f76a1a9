// Weight-matrix optimization (paper §IV-B).
//
// The paper derives that convergence is fastest when the mixing matrix
// simultaneously minimizes λ̄_max(W) (problem (23): λ_max(W)=1 is fixed,
// so this minimizes the second-largest eigenvalue) and maximizes
// λ_min(W) (problem (22)). Both are convex problems over the convex
// feasible set of Theorem 2; since one matrix rarely optimizes both,
// SNAP solves each separately and deploys "the solution that can result
// in the larger convergence rate".
//
// Solver: projected subgradient in edge-weight coordinates. For a simple
// eigenvalue λ with unit eigenvector u, the derivative of λ(W) along the
// edge direction of e = {i, j} (which bumps w_ij, w_ji by +1 and w_ii,
// w_jj by −1) is 2u_i u_j − u_i² − u_j² = −(u_i − u_j)². The method uses
// a diminishing step, projects with Dykstra after every step, tracks the
// best feasible iterate, and stops after `patience` non-improving steps.
#pragma once

#include <cstddef>

#include "consensus/edge_weights.hpp"
#include "linalg/matrix.hpp"
#include "topology/graph.hpp"

namespace snap::consensus {

struct WeightOptimizerConfig {
  std::size_t max_iterations = 300;
  /// Stop after this many consecutive steps without improvement.
  std::size_t patience = 40;
  /// Initial subgradient step (decays as step0 / sqrt(k+1)).
  double initial_step = 0.5;
  /// ε of the max-degree initialization (paper eq. (24)).
  double init_epsilon = 0.01;
};

/// Objective report for one optimized matrix.
struct OptimizedWeights {
  linalg::Matrix w;
  double objective = 0.0;        ///< final value of the optimized objective
  std::size_t iterations = 0;    ///< subgradient steps taken
};

/// Problem (23): minimize λ̄_max(W) over the feasible set.
///
/// Caveat (inherent to the paper's formulation): driving the second
/// eigenvalue down without a floor on λ_min can produce near-periodic
/// matrices (λ_min → −1). The selection stage catches this via the
/// convergence score.
OptimizedWeights minimize_second_eigenvalue(
    const topology::Graph& graph,
    const WeightOptimizerConfig& config = {});

/// Problem (22): maximize λ_min(W) over the feasible set. The reported
/// objective is λ_min of the returned matrix.
///
/// Caveat (inherent to the paper's formulation): the identity matrix is
/// feasible and has λ_min = 1, so the unconstrained optimum of (22) is
/// the useless no-mixing matrix; the solver drifts toward it. The
/// selection stage catches this via the convergence score.
OptimizedWeights maximize_smallest_eigenvalue(
    const topology::Graph& graph,
    const WeightOptimizerConfig& config = {});

/// The combined objective (20) that problems (22) and (23) jointly
/// approximate: minimize the second-largest eigenvalue modulus
/// max(λ̄_max(W), −λ_min(W)) (the SLEM). This is the candidate that
/// balances both desiderata and wins the selection on most topologies.
OptimizedWeights minimize_slem(const topology::Graph& graph,
                               const WeightOptimizerConfig& config = {});

/// Which candidate a selection chose.
enum class WeightChoice {
  kMaxDegreeInit,         ///< unoptimized eq. (24) baseline
  kMinSecondEigenvalue,   ///< problem (23) solution
  kMaxSmallestEigenvalue, ///< problem (22) solution
  kMinSlem,               ///< combined objective (20) solution
};

struct WeightSelection {
  linalg::Matrix w;
  WeightChoice choice = WeightChoice::kMaxDegreeInit;
  double score = 0.0;  ///< convergence_score of the winner
};

/// Full §IV-B pipeline: initialize with eq. (24), solve problems (22),
/// (23), and the combined (20)/SLEM surrogate, then return the candidate
/// with the best convergence_score (the initialization is kept as a
/// candidate, so optimization never selects a worse matrix than the
/// baseline — mirroring the paper's "implement the solution that can
/// result in the larger convergence rate").
///
/// Requires a connected graph: on a disconnected one eigenvalue 1
/// repeats per component, the SLEM objective is pinned at 1, and no
/// feasible matrix can drive global consensus — callers with a
/// partitioned topology must optimize each component separately
/// (reproject_weight_matrix_sparse's kOptimize leg does exactly that).
WeightSelection select_weight_matrix(const topology::Graph& graph,
                                     const WeightOptimizerConfig& config = {});

}  // namespace snap::consensus
