#include "oracle/topk.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "net/frame.hpp"
#include "support/quadratic_model.hpp"
#include "topology/generators.hpp"

namespace snap::baselines {
namespace {

using oracle::make_topk_compressor;
using oracle::sparsify_top_k;
using oracle::topk_config;
using snap::testing::QuadraticModel;
using snap::testing::point_shard;

TEST(SparsifyTopKTest, KeepsLargestMagnitudes) {
  const linalg::Vector g{0.1, -5.0, 2.0, -0.5, 3.0};
  const linalg::Vector sparse = sparsify_top_k(g, 2);
  EXPECT_DOUBLE_EQ(sparse[0], 0.0);
  EXPECT_DOUBLE_EQ(sparse[1], -5.0);
  EXPECT_DOUBLE_EQ(sparse[2], 0.0);
  EXPECT_DOUBLE_EQ(sparse[3], 0.0);
  EXPECT_DOUBLE_EQ(sparse[4], 3.0);
}

TEST(SparsifyTopKTest, KLargerThanSizeIsIdentity) {
  const linalg::Vector g{1.0, 2.0};
  EXPECT_TRUE(sparsify_top_k(g, 5) == g);
  EXPECT_TRUE(sparsify_top_k(g, 2) == g);
}

TEST(SparsifyTopKTest, TiesResolveDeterministically) {
  const linalg::Vector g{1.0, -1.0, 1.0};
  const linalg::Vector sparse = sparsify_top_k(g, 2);
  // Lower indices win ties.
  EXPECT_DOUBLE_EQ(sparse[0], 1.0);
  EXPECT_DOUBLE_EQ(sparse[1], -1.0);
  EXPECT_DOUBLE_EQ(sparse[2], 0.0);
}

TEST(TopKCompressorTest, WireBytesAndShape) {
  auto compressor = make_topk_compressor(3, /*error_feedback=*/false);
  const linalg::Vector g{5.0, 4.0, 3.0, 2.0, 1.0};
  const auto out = compressor(g, 0);
  EXPECT_EQ(out.wire_bytes, 36u);
  EXPECT_DOUBLE_EQ(out.gradient[3], 0.0);
  EXPECT_DOUBLE_EQ(out.gradient[4], 0.0);
  EXPECT_DOUBLE_EQ(out.gradient[0], 5.0);
}

TEST(TopKCompressorTest, ErrorFeedbackCarriesDroppedMass) {
  auto compressor = make_topk_compressor(1, /*error_feedback=*/true);
  const linalg::Vector g{1.0, 0.6};
  // Call 1: sends component 0 (1.0); residual keeps 0.6 on component 1.
  const auto first = compressor(g, 0);
  EXPECT_DOUBLE_EQ(first.gradient[0], 1.0);
  EXPECT_DOUBLE_EQ(first.gradient[1], 0.0);
  // Call 2 with the same gradient: accumulated component 1 = 1.2 now
  // beats component 0 = 1.0.
  const auto second = compressor(g, 0);
  EXPECT_DOUBLE_EQ(second.gradient[0], 0.0);
  EXPECT_DOUBLE_EQ(second.gradient[1], 1.2);
}

TEST(TopKCompressorTest, WorkersHaveIndependentResiduals) {
  auto compressor = make_topk_compressor(1, true);
  const linalg::Vector g{1.0, 0.6};
  (void)compressor(g, 0);
  // Worker 1's first call has no residual: sends component 0.
  const auto out = compressor(g, 1);
  EXPECT_DOUBLE_EQ(out.gradient[0], 1.0);
}

TEST(TopKCompressorTest, RejectsZeroK) {
  EXPECT_THROW(make_topk_compressor(0), common::ContractViolation);
}

TEST(TopKEndToEndTest, ConvergesWithErrorFeedback) {
  const auto g = topology::make_complete(4);
  QuadraticModel model(6);
  std::vector<data::Dataset> shards;
  common::Rng rng(3);
  linalg::Vector optimum(6);
  for (int i = 0; i < 4; ++i) {
    linalg::Vector c(6);
    for (std::size_t d = 0; d < 6; ++d) c[d] = rng.normal(0.0, 1.0);
    optimum += c;
    shards.push_back(point_shard(c));
  }
  optimum *= 0.25;

  ParameterServerConfig cfg;
  cfg.alpha = 0.3;
  cfg.convergence.max_iterations = 400;
  cfg.convergence.loss_tolerance = 0.0;  // fixed length
  const auto result = train_parameter_server(
      g, model, shards, data::Dataset(6, 2),
      topk_config(cfg, /*k=*/2, /*error_feedback=*/true));
  // Error feedback converges to a small neighborhood (the carried
  // residual oscillates at O(α·residual) scale for constant α).
  EXPECT_LT(linalg::max_abs_diff(result.final_params, optimum), 0.15);
  // Upload traffic reflects k, not the dimension. Every transfer also
  // pays the frame header.
  EXPECT_EQ(result.iterations.front().bytes,
            // 3 remote workers upload 24 bytes each; PS pushes back
            // 6×8 = 48 dense bytes to each.
            3u * (2u * net::kFrameHeaderBytes + 24u + 48u));
}

TEST(TopKEndToEndTest, WithoutFeedbackConvergesLessAccurately) {
  const auto g = topology::make_complete(4);
  QuadraticModel model(6);
  std::vector<data::Dataset> shards;
  common::Rng rng(4);
  linalg::Vector optimum(6);
  for (int i = 0; i < 4; ++i) {
    linalg::Vector c(6);
    for (std::size_t d = 0; d < 6; ++d) c[d] = rng.normal(0.0, 1.0);
    optimum += c;
    shards.push_back(point_shard(c));
  }
  optimum *= 0.25;

  ParameterServerConfig cfg;
  cfg.alpha = 0.3;
  cfg.convergence.max_iterations = 400;
  cfg.convergence.loss_tolerance = 0.0;  // fixed length

  const auto with = train_parameter_server(
      g, model, shards, data::Dataset(6, 2), topk_config(cfg, 2, true));
  const auto without = train_parameter_server(
      g, model, shards, data::Dataset(6, 2), topk_config(cfg, 2, false));
  const double err_with =
      linalg::max_abs_diff(with.final_params, optimum);
  const double err_without =
      linalg::max_abs_diff(without.final_params, optimum);
  EXPECT_LE(err_with, err_without + 1e-9);
}

}  // namespace
}  // namespace snap::baselines
