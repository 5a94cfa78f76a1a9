// The `threads` knob's hard guarantee: every trainer produces bitwise
// identical results for every thread count. Parallel regions only touch
// per-index state; every cross-node effect (reductions, rng draws,
// compression, byte accounting) replays in fixed node order — so
// threads=4 must reproduce threads=1 exactly, not approximately.
#include <gtest/gtest.h>

#include "baselines/parameter_server.hpp"
#include "baselines/terngrad.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "core/snap_trainer.hpp"
#include "oracle/dgd.hpp"
#include "support/bitwise_result.hpp"
#include "support/quadratic_model.hpp"
#include "topology/generators.hpp"

namespace snap::core {
namespace {

using oracle::DgdIteration;
using snap::testing::QuadraticModel;
using snap::testing::bits_of;
using snap::testing::expect_bitwise_equal;
using snap::testing::point_shard;

std::vector<data::Dataset> random_point_shards(std::size_t nodes,
                                               std::size_t dim,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<data::Dataset> shards;
  shards.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    linalg::Vector c(dim);
    for (std::size_t d = 0; d < dim; ++d) c[d] = rng.normal(0.0, 2.0);
    shards.push_back(point_shard(c));
  }
  return shards;
}

TEST(ParallelDeterminismTest, SnapTrainerIsThreadCountInvariant) {
  // APE filtering + link failures + backlog merging — the full round
  // machinery, where any scheduling leak would surface.
  const std::size_t n = 9;
  common::Rng topo_rng(21);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const data::Dataset test(4, 2);
  const QuadraticModel model(4);  // must outlive train() — the trainer
                                  // keeps a pointer, not a copy

  auto run = [&](std::size_t threads) {
    SnapTrainerConfig cfg;
    cfg.alpha = 0.2;
    cfg.filter = FilterMode::kApe;
    cfg.convergence.max_iterations = 30;
    cfg.convergence.loss_tolerance = 0.0;
    cfg.faults = net::FaultPlan::memoryless_links(0.1);
    cfg.threads = threads;
    SnapTrainer trainer(g, w, model, random_point_shards(n, 4, 22), cfg);
    return trainer.train(test);
  };

  const TrainResult serial = run(1);
  expect_bitwise_equal(serial, run(4));
  expect_bitwise_equal(serial, run(0));  // hardware concurrency
}

TEST(ParallelDeterminismTest, DgdIsThreadCountInvariant) {
  const std::size_t n = 8;
  common::Rng topo_rng(23);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w =
      consensus::w_tilde(consensus::max_degree_weights(g));
  common::Rng center_rng(24);
  std::vector<linalg::Vector> centers;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector c(3);
    for (std::size_t d = 0; d < 3; ++d) c[d] = center_rng.normal(0.0, 2.0);
    centers.push_back(std::move(c));
  }
  auto gradient = [&](std::size_t node, const linalg::Vector& x) {
    linalg::Vector grad = x;
    grad -= centers[node];
    return grad;
  };

  auto run = [&](std::size_t threads) {
    DgdIteration dgd(w, std::vector<linalg::Vector>(n, linalg::Vector(3)),
                     0.1, gradient, threads);
    for (int k = 0; k < 200; ++k) dgd.step();
    return dgd;
  };

  const DgdIteration serial = run(1);
  const DgdIteration parallel = run(4);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(bits_of(serial.params(i)[d]), bits_of(parallel.params(i)[d]))
          << "node " << i << " dim " << d;
    }
  }
  const linalg::Vector ms = serial.mean_params();
  const linalg::Vector mp = parallel.mean_params();
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(bits_of(ms[d]), bits_of(mp[d]));
  }
  EXPECT_EQ(bits_of(serial.consensus_residual()),
            bits_of(parallel.consensus_residual()));
}

TEST(ParallelDeterminismTest, TernGradBaselineIsThreadCountInvariant) {
  // TernGrad exercises the stateful path: minibatch rng draws and the
  // per-call ternarization rng must replay identically, which only
  // works because sampling and compression stay serial in worker order.
  const std::size_t n = 6;
  const auto g = topology::make_star(n);
  const data::Dataset test(3, 2);

  auto run = [&](std::size_t threads) {
    baselines::ParameterServerConfig cfg;
    cfg.alpha = 0.1;
    cfg.convergence.max_iterations = 25;
    cfg.convergence.loss_tolerance = 0.0;
    cfg.threads = threads;
    return baselines::train_parameter_server(
        g, QuadraticModel(3), random_point_shards(n, 3, 26), test,
        baselines::terngrad_config(cfg));
  };

  expect_bitwise_equal(run(1), run(4));
}

}  // namespace
}  // namespace snap::core
