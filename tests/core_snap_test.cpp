#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "consensus/weight_matrix.hpp"
#include "core/extra.hpp"
#include "core/snap_node.hpp"
#include "core/snap_trainer.hpp"
#include "support/quadratic_model.hpp"
#include "topology/generators.hpp"

namespace snap::core {
namespace {

using snap::testing::QuadraticModel;
using snap::testing::point_shard;

std::vector<data::Dataset> point_shards(
    const std::vector<linalg::Vector>& centers) {
  std::vector<data::Dataset> shards;
  shards.reserve(centers.size());
  for (const auto& c : centers) shards.push_back(point_shard(c));
  return shards;
}

linalg::Vector mean_center(const std::vector<linalg::Vector>& centers) {
  linalg::Vector mean(centers.front().size());
  for (const auto& c : centers) mean += c;
  mean *= 1.0 / static_cast<double>(centers.size());
  return mean;
}

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

// -------------------------------------------------------------- SnapNode

TEST(SnapNodeTest, RequiresConsistentWeightRow) {
  QuadraticModel model(2);
  // Row does not sum to 1.
  EXPECT_THROW(SnapNode(0, model, point_shard(linalg::Vector{0.0, 0.0}),
                        {1}, {0.3}, 0.5),
               common::ContractViolation);
  // Missing neighbor weight: the weights are not aligned with the
  // neighbor list.
  EXPECT_THROW(SnapNode(0, model, point_shard(linalg::Vector{0.0, 0.0}),
                        {1}, {}, 1.0),
               common::ContractViolation);
  // Neighbor list not index-sorted.
  EXPECT_THROW(SnapNode(0, model, point_shard(linalg::Vector{0.0, 0.0}),
                        {2, 1}, {0.25, 0.25}, 0.5),
               common::ContractViolation);
}

TEST(SnapNodeTest, ComputeBeforeInitThrows) {
  QuadraticModel model(2);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0, 0.0}), {},
                {}, 1.0);
  EXPECT_THROW(node.compute_update(0.1), common::ContractViolation);
}

TEST(SnapNodeTest, LoadRejectsCountThatWrapsTheByteSize) {
  QuadraticModel model(2);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0, 0.0}), {},
                {}, 1.0);
  // A neighbor count of 2^61: count * 8 wraps to 0, which equals the 0
  // bytes left after it.
  common::ByteWriter writer;
  writer.write_u64(std::uint64_t{1} << 61);
  common::ByteReader reader(writer.bytes());
  EXPECT_FALSE(node.load(reader));
}

TEST(SnapNodeTest, LoadRejectsAdvertisedShorterThanDim) {
  QuadraticModel model(2);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0, 0.0}), {},
                {}, 1.0);
  node.set_initial(linalg::Vector{7.5, -3.25});
  common::ByteWriter writer;
  node.save(writer);
  std::vector<std::byte> blob(writer.bytes().begin(), writer.bytes().end());
  // Blob prefix for a node with no neighbors: four empty u64-counted
  // lists and two f64 self weights (48 bytes), the dirty flag (1), then
  // x_previous_ and x_current_ (count + 2 doubles each) and the empty
  // grad_previous_ (count only).
  constexpr std::size_t kDim = 2;
  constexpr std::size_t kAdvertised = 49 + 2 * (8 + 8 * kDim) + 8;
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t value = 0;
    std::memcpy(&value, blob.data() + at, sizeof value);
    return value;
  };
  ASSERT_EQ(u64_at(kAdvertised), kDim);
  ASSERT_EQ(u64_at(kAdvertised + 8 + 8 * kDim), kDim);  // dim_ follows
  {
    common::ByteReader intact(blob);
    ASSERT_TRUE(node.load(intact));
  }
  {
    // Self-consistent, but shaped for another model.
    QuadraticModel wider(3);
    SnapNode other(0, wider, point_shard(linalg::Vector{0.0, 0.0, 0.0}),
                   {}, {}, 1.0);
    common::ByteReader intact(blob);
    EXPECT_FALSE(other.load(intact));
  }
  // Splice one double out of the advertised_ block: the blob stays
  // well-formed, but collect_updates would index advertised_[1].
  const std::uint64_t shorter = kDim - 1;
  std::memcpy(blob.data() + kAdvertised, &shorter, sizeof shorter);
  const auto first_value = blob.begin() + kAdvertised + 8;
  blob.erase(first_value, first_value + 8);
  common::ByteReader reader(blob);
  EXPECT_FALSE(node.load(reader));
}

TEST(SnapNodeTest, FirstUpdateMatchesClosedForm) {
  QuadraticModel model(1);
  // Two nodes, W = [[0.5, 0.5], [0.5, 0.5]], centers 1 and 3, x⁰ = 0.
  SnapNode node(0, model, point_shard(linalg::Vector{1.0}), {1},
                {0.5}, 0.5);
  node.set_initial(linalg::Vector{0.0});
  node.compute_update(0.1);
  // x¹ = 0.5·0 + 0.5·view(= 0) − 0.1·(0 − 1) = 0.1.
  EXPECT_NEAR(node.params()[0], 0.1, 1e-12);
}

TEST(SnapNodeTest, CollectUpdatesModes) {
  QuadraticModel model(3);
  SnapNode node(0, model, point_shard(linalg::Vector{5.0, 0.0, 0.0}), {},
                {}, 1.0);
  node.set_initial(linalg::Vector{0.0, 0.0, 0.0});
  node.compute_update(0.1);  // x¹ = (0.5, 0, 0): only component 0 moves

  // kSendAll transmits everything even if unchanged.
  {
    SnapNode fresh(0, model, point_shard(linalg::Vector{5.0, 0.0, 0.0}),
                   {}, {}, 1.0);
    fresh.set_initial(linalg::Vector{0.0, 0.0, 0.0});
    fresh.compute_update(0.1);
    const auto out = fresh.collect_updates(FilterMode::kSendAll, 0.0);
    EXPECT_EQ(out.updates.size(), 3u);
    EXPECT_DOUBLE_EQ(out.max_withheld, 0.0);
  }
  // kExactChange drops the two zero-change components.
  {
    const auto out = node.collect_updates(FilterMode::kExactChange, 0.0);
    ASSERT_EQ(out.updates.size(), 1u);
    EXPECT_EQ(out.updates[0].index, 0u);
    EXPECT_DOUBLE_EQ(out.max_withheld, 0.0);
  }
}

TEST(SnapNodeTest, ApeFilterWithholdsBelowThreshold) {
  QuadraticModel model(2);
  SnapNode node(0, model, point_shard(linalg::Vector{1.0, 0.01}), {},
                {}, 1.0);
  node.set_initial(linalg::Vector{0.0, 0.0});
  node.compute_update(1.0);  // x¹ = (1.0, 0.01)
  const auto out = node.collect_updates(FilterMode::kApe, 0.1);
  ASSERT_EQ(out.updates.size(), 1u);
  EXPECT_EQ(out.updates[0].index, 0u);
  EXPECT_NEAR(out.max_withheld, 0.01, 1e-12);
}

TEST(SnapNodeTest, AdvertisedValuesPersistAcrossIterations) {
  QuadraticModel model(1);
  SnapNode node(0, model, point_shard(linalg::Vector{10.0}), {},
                {}, 1.0);
  node.set_initial(linalg::Vector{0.0});
  node.compute_update(0.001);  // small move: 0.01
  // Withheld under a 0.05 threshold.
  auto out = node.collect_updates(FilterMode::kApe, 0.05);
  EXPECT_TRUE(out.updates.empty());
  node.compute_update(0.001);
  node.compute_update(0.001);
  node.compute_update(0.001);
  node.compute_update(0.001);
  node.compute_update(0.001);
  // Accumulated drift vs the advertised value finally crosses the
  // threshold even though each per-iteration change is below it.
  out = node.collect_updates(FilterMode::kApe, 0.05);
  EXPECT_EQ(out.updates.size(), 1u);
}

TEST(SnapNodeTest, ViewsUpdateOnApply) {
  QuadraticModel model(2);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0, 0.0}), {1},
                {0.5}, 0.5);
  node.set_initial(linalg::Vector{1.0, 2.0});
  const std::vector<net::ParamUpdate> updates{{1, 9.0}};
  node.advance_views();
  node.apply_update(1, updates);
  EXPECT_DOUBLE_EQ(node.view_of(1)[0], 1.0);  // untouched component
  EXPECT_DOUBLE_EQ(node.view_of(1)[1], 9.0);
}

TEST(SnapNodeTest, ApplyFromNonNeighborThrows) {
  QuadraticModel model(1);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0}), {1},
                {0.5}, 0.5);
  node.set_initial(linalg::Vector{0.0});
  const std::vector<net::ParamUpdate> updates{{0, 1.0}};
  EXPECT_THROW(node.apply_update(2, updates), common::ContractViolation);
}

TEST(SnapNodeTest, SetTopologyOnlyGrowsTheNeighborList) {
  QuadraticModel model(1);
  SnapNode node(0, model, point_shard(linalg::Vector{0.0}), {1, 2},
                {0.25, 0.25}, 0.5);
  node.set_initial(linalg::Vector{1.0});
  node.advance_views();
  const std::vector<net::ParamUpdate> updates{{0, 7.0}};
  node.apply_update(2, updates);
  EXPECT_THROW(node.set_topology({2, 3}, {0.25, 0.25}, 0.5),
               common::ContractViolation);
  // Growing keeps every old view and its freshness; the new neighbor's
  // view is this node's iterate, stale until its first frame.
  node.set_topology({1, 2, 3}, {0.25, 0.25, 0.0}, 0.5);
  EXPECT_EQ(node.neighbors(), (std::vector<topology::NodeId>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(node.view_of(2)[0], 7.0);
  EXPECT_TRUE(node.is_fresh(2));
  EXPECT_FALSE(node.is_fresh(1));
  EXPECT_DOUBLE_EQ(node.view_of(3)[0], 1.0);
  EXPECT_FALSE(node.is_fresh(3));
}

// ------------------------------------- SnapTrainer ≡ matrix-form EXTRA

TEST(SnapTrainerTest, SendAllMatchesMatrixFormExactly) {
  // With no filtering and no failures, the distributed implementation
  // must reproduce the centralized recursion (6) to machine precision.
  const std::size_t n = 5;
  const std::size_t dim = 3;
  common::Rng topo_rng(77);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto centers = random_centers(n, dim, 78);

  QuadraticModel model(dim);
  SnapTrainerConfig cfg;
  cfg.alpha = 0.2;
  cfg.filter = FilterMode::kSendAll;
  cfg.convergence.max_iterations = 30;
  cfg.convergence.loss_tolerance = 0.0;  // never converge: fixed length
  cfg.seed = 99;

  // Reproduce the trainer's initialization path to seed the reference.
  common::Rng seed_rng(cfg.seed);
  common::Rng init_rng = seed_rng.fork("init");
  const linalg::Vector x0 = model.initial_params(init_rng);

  ExtraIteration reference(
      w, std::vector<linalg::Vector>(n, x0), cfg.alpha,
      [&](std::size_t node, const linalg::Vector& x) {
        linalg::Vector grad = x;
        grad -= centers[node];
        return grad;
      });

  SnapTrainer trainer(g, w, model, point_shards(centers), cfg);
  double worst = 0.0;
  trainer.set_observer([&](std::size_t, const std::vector<SnapNode>& nodes) {
    reference.step();
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, linalg::max_abs_diff(nodes[i].params(),
                                                   reference.params(i)));
    }
  });
  (void)trainer.train(data::Dataset(dim, 2));
  EXPECT_LT(worst, 1e-12);
}

TEST(SnapTrainerTest, ConvergesToClosedFormOptimum) {
  const std::size_t n = 8;
  common::Rng topo_rng(5);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto centers = random_centers(n, 4, 6);

  QuadraticModel model(4);
  SnapTrainerConfig cfg;
  cfg.alpha = 0.2;
  cfg.filter = FilterMode::kApe;
  cfg.ape.epsilon = 1e-3;
  cfg.convergence.max_iterations = 800;
  cfg.convergence.loss_tolerance = 1e-9;
  cfg.convergence.consensus_tolerance = 1e-5;
  SnapTrainer trainer(g, w, model, point_shards(centers), cfg);
  const TrainResult result = trainer.train(data::Dataset(4, 2));

  EXPECT_TRUE(result.converged);
  const linalg::Vector opt = mean_center(centers);
  EXPECT_LT(linalg::max_abs_diff(result.final_params, opt), 1e-3);
}

TEST(SnapTrainerTest, CommunicationOrderingSnapLeqSnap0LeqSno) {
  const std::size_t n = 6;
  common::Rng topo_rng(8);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto centers = random_centers(n, 6, 9);
  QuadraticModel model(6);

  auto run = [&](FilterMode filter) {
    SnapTrainerConfig cfg;
    cfg.alpha = 0.2;
    cfg.filter = filter;
    cfg.convergence.max_iterations = 60;
    cfg.convergence.loss_tolerance = 0.0;  // fixed-length runs
    SnapTrainer trainer(g, w, model, point_shards(centers), cfg);
    return trainer.train(data::Dataset(6, 2));
  };

  const auto snap = run(FilterMode::kApe);
  const auto snap0 = run(FilterMode::kExactChange);
  const auto sno = run(FilterMode::kSendAll);
  EXPECT_LE(snap.total_bytes, snap0.total_bytes);
  EXPECT_LE(snap0.total_bytes, sno.total_bytes);
  EXPECT_GT(snap.total_bytes, 0u);
  // SNO's traffic is constant per iteration.
  EXPECT_EQ(sno.iterations.front().bytes, sno.iterations.back().bytes);
}

TEST(SnapTrainerTest, SnapTrafficDecaysAsTrainingConverges) {
  const std::size_t n = 5;
  common::Rng topo_rng(10);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto centers = random_centers(n, 8, 11);
  QuadraticModel model(8);

  SnapTrainerConfig cfg;
  cfg.alpha = 0.2;
  cfg.filter = FilterMode::kApe;
  cfg.convergence.max_iterations = 80;
  cfg.convergence.loss_tolerance = 0.0;
  SnapTrainer trainer(g, w, model, point_shards(centers), cfg);
  const TrainResult result = trainer.train(data::Dataset(8, 2));

  // Late iterations move far fewer bytes than early ones (Fig. 4b).
  const auto& iters = result.iterations;
  std::uint64_t early = 0;
  std::uint64_t late = 0;
  for (std::size_t k = 0; k < 10; ++k) early += iters[k].bytes;
  for (std::size_t k = iters.size() - 10; k < iters.size(); ++k) {
    late += iters[k].bytes;
  }
  EXPECT_LT(late, early / 4);
}

TEST(SnapTrainerTest, StragglersSlowButDoNotBreakConvergence) {
  const std::size_t n = 8;
  common::Rng topo_rng(12);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto centers = random_centers(n, 4, 13);
  QuadraticModel model(4);

  auto run = [&](double failure) {
    SnapTrainerConfig cfg;
    cfg.alpha = 0.2;
    cfg.filter = FilterMode::kApe;
    cfg.ape.epsilon = 1e-3;
    cfg.convergence.max_iterations = 1000;
    cfg.convergence.loss_tolerance = 1e-8;
    cfg.convergence.consensus_tolerance = 1e-4;
    cfg.faults = net::FaultPlan::memoryless_links(failure);
    SnapTrainer trainer(g, w, model, point_shards(centers), cfg);
    return trainer.train(data::Dataset(4, 2));
  };

  const auto healthy = run(0.0);
  const auto degraded = run(0.10);
  EXPECT_TRUE(healthy.converged);
  EXPECT_TRUE(degraded.converged);
  // The default reweight policy is robust enough that 10% failures cost
  // at most a modest factor either way (per-round dropout adds noise
  // that can even help escape the filter's plateau a little earlier).
  EXPECT_LT(degraded.converged_after, healthy.converged_after * 2);
  // Straggled runs land near the optimum. The paper's semantics accept
  // a small residual bias at the plateau ("we usually allow a small APE
  // threshold"), and delayed frames add timing noise on top — so the
  // check is accuracy-flavoured, not exact.
  const linalg::Vector opt = mean_center(centers);
  EXPECT_LT(linalg::max_abs_diff(healthy.final_params, opt), 1e-1);
  EXPECT_LT(linalg::max_abs_diff(degraded.final_params, opt), 5e-1);
}

TEST(SnapTrainerTest, RejectsInfeasibleWeightMatrix) {
  const auto g = topology::make_line(3);
  QuadraticModel model(2);
  // Feasible for K_3, not for a line.
  linalg::Matrix w{{0.4, 0.3, 0.3}, {0.3, 0.4, 0.3}, {0.3, 0.3, 0.4}};
  const auto centers = random_centers(3, 2, 14);
  SnapTrainerConfig cfg;
  EXPECT_THROW(SnapTrainer(g, w, model, point_shards(centers), cfg),
               common::ContractViolation);
}

TEST(SnapTrainerTest, RejectsStoredZeroOffTheGraph) {
  // Metropolis on a ring with edge {0, 3} masked out keeps that edge as
  // a stored zero. On the line (the ring minus that edge) the slot is
  // no graph edge: a node row holding it would list a neighbor the
  // graph does not have, so the trainer refuses the matrix.
  const auto ring = topology::make_ring(4);
  const auto line = topology::make_line(4);
  std::vector<std::uint8_t> kept(ring.edges().size(), 1);
  for (std::size_t e = 0; e < kept.size(); ++e) {
    const auto [u, v] = ring.edges()[e];
    if (u == 0 && v == 3) kept[e] = 0;
  }
  const auto masked = consensus::SparseWeightMatrix::metropolis_on_survivors(
      ring, {}, {}, kept);
  EXPECT_FALSE(consensus::is_feasible_weight_matrix(masked, line));
  QuadraticModel model(2);
  const auto centers = random_centers(4, 2, 16);
  SnapTrainerConfig cfg;
  EXPECT_THROW(SnapTrainer(line, masked, model, point_shards(centers), cfg),
               common::ContractViolation);
  const auto on_line =
      consensus::SparseWeightMatrix::metropolis_on_survivors(line);
  EXPECT_NO_THROW(
      SnapTrainer(line, on_line, model, point_shards(centers), cfg));
}

TEST(SnapTrainerTest, RejectsShardCountMismatch) {
  const auto g = topology::make_ring(4);
  QuadraticModel model(2);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto centers = random_centers(3, 2, 15);  // 3 shards, 4 nodes
  SnapTrainerConfig cfg;
  EXPECT_THROW(SnapTrainer(g, w, model, point_shards(centers), cfg),
               common::ContractViolation);
}

TEST(SnapTrainerTest, DeterministicAcrossRuns) {
  const std::size_t n = 5;
  common::Rng topo_rng(16);
  const auto g = topology::make_random_connected(n, 3.0, topo_rng);
  const linalg::Matrix w = consensus::max_degree_weights(g);
  const auto centers = random_centers(n, 3, 17);
  QuadraticModel model(3);
  SnapTrainerConfig cfg;
  cfg.alpha = 0.2;
  cfg.convergence.max_iterations = 40;
  cfg.convergence.loss_tolerance = 0.0;
  cfg.faults = net::FaultPlan::memoryless_links(0.05);

  auto run = [&] {
    SnapTrainer trainer(g, w, model, point_shards(centers), cfg);
    return trainer.train(data::Dataset(3, 2));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_TRUE(
      linalg::approx_equal(a.final_params, b.final_params, 0.0));
}

}  // namespace
}  // namespace snap::core
