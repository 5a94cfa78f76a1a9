#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "ml/linear_svm.hpp"
#include "ml/mlp.hpp"
#include "ml/model.hpp"
#include "ml/softmax_regression.hpp"

namespace snap::ml {
namespace {

/// Central-difference numerical gradient of model.loss at `params`.
linalg::Vector numerical_gradient(const Model& model,
                                  const linalg::Vector& params,
                                  const data::Dataset& data,
                                  double h = 1e-6) {
  linalg::Vector grad(params.size());
  linalg::Vector probe = params;
  for (std::size_t i = 0; i < params.size(); ++i) {
    probe[i] = params[i] + h;
    const double up = model.loss(probe, data);
    probe[i] = params[i] - h;
    const double down = model.loss(probe, data);
    probe[i] = params[i];
    grad[i] = (up - down) / (2.0 * h);
  }
  return grad;
}

data::Dataset binary_blobs(std::size_t per_class, std::size_t dim,
                           common::Rng& rng) {
  data::Dataset d(dim, 2);
  std::vector<double> x(dim);
  for (std::size_t c = 0; c < 2; ++c) {
    const double center = c == 0 ? -1.0 : 1.0;
    for (std::size_t s = 0; s < per_class; ++s) {
      for (double& xi : x) xi = rng.normal(center, 0.6);
      d.add(x, c);
    }
  }
  return d;
}

data::Dataset multiclass_blobs(std::size_t per_class, std::size_t dim,
                               std::size_t classes, common::Rng& rng) {
  data::Dataset d(dim, classes);
  std::vector<double> x(dim);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t s = 0; s < per_class; ++s) {
      for (std::size_t i = 0; i < dim; ++i) {
        x[i] = rng.normal(i == c % dim ? 2.0 : 0.0, 0.5);
      }
      d.add(x, c);
    }
  }
  return d;
}

// ----------------------------------------------------------- LinearSvm

TEST(LinearSvmTest, ParamCountIncludesBias) {
  LinearSvm svm(LinearSvmConfig{.feature_dim = 24});
  EXPECT_EQ(svm.param_count(), 25u);
  EXPECT_EQ(svm.name(), "linear-svm-24");
}

TEST(LinearSvmTest, ZeroLossFarFromMargin) {
  LinearSvm svm(LinearSvmConfig{.feature_dim = 1, .l2 = 0.0});
  data::Dataset d(1, 2);
  d.add(std::vector<double>{5.0}, 1);
  d.add(std::vector<double>{-5.0}, 0);
  // w = 1, b = 0: both samples have margin 5 ≥ 1 → no hinge loss.
  EXPECT_DOUBLE_EQ(svm.loss(linalg::Vector{1.0, 0.0}, d), 0.0);
}

TEST(LinearSvmTest, HingeIsSquared) {
  LinearSvm svm(LinearSvmConfig{.feature_dim = 1, .l2 = 0.0});
  data::Dataset d(1, 2);
  d.add(std::vector<double>{0.0}, 1);  // margin = b = 0, slack = 1
  EXPECT_DOUBLE_EQ(svm.loss(linalg::Vector{0.0, 0.0}, d), 1.0);
  d.add(std::vector<double>{0.0}, 1);  // same sample, mean stays 1
  EXPECT_DOUBLE_EQ(svm.loss(linalg::Vector{0.0, 0.0}, d), 1.0);
}

TEST(LinearSvmTest, EmptyDataCostsOnlyRegularizer) {
  LinearSvm svm(LinearSvmConfig{.feature_dim = 2, .l2 = 0.5});
  const data::Dataset d(2, 2);
  EXPECT_DOUBLE_EQ(svm.loss(linalg::Vector{2.0, 0.0, 7.0}, d),
                   0.25 * 4.0);  // 0.5·λ·‖w‖², bias excluded
}

TEST(LinearSvmTest, PredictUsesSignOfMargin) {
  LinearSvm svm(LinearSvmConfig{.feature_dim = 1});
  EXPECT_EQ(svm.predict(linalg::Vector{1.0, 0.0}, std::vector<double>{2.0}),
            1u);
  EXPECT_EQ(svm.predict(linalg::Vector{1.0, 0.0}, std::vector<double>{-2.0}),
            0u);
}

TEST(LinearSvmTest, GradientMatchesNumerical) {
  common::Rng rng(1);
  LinearSvm svm(LinearSvmConfig{.feature_dim = 5, .l2 = 0.01});
  const data::Dataset d = binary_blobs(20, 5, rng);
  common::Rng init(2);
  const linalg::Vector params = svm.initial_params(init);
  const auto lg = svm.loss_gradient(params, d);
  EXPECT_NEAR(lg.loss, svm.loss(params, d), 1e-12);
  const linalg::Vector numeric = numerical_gradient(svm, params, d);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(lg.gradient[i], numeric[i], 1e-5) << "component " << i;
  }
}

TEST(LinearSvmTest, GradientDescentLearnsSeparableData) {
  common::Rng rng(3);
  LinearSvm svm(LinearSvmConfig{.feature_dim = 4, .l2 = 1e-4});
  const data::Dataset d = binary_blobs(50, 4, rng);
  common::Rng init(4);
  linalg::Vector params = svm.initial_params(init);
  for (int step = 0; step < 300; ++step) {
    params.axpy(-0.05, svm.gradient(params, d));
  }
  EXPECT_GT(svm.accuracy(params, d), 0.97);
}

// --------------------------------------------------- SoftmaxRegression

TEST(SoftmaxRegressionTest, ParamLayout) {
  SoftmaxRegression model(
      SoftmaxRegressionConfig{.feature_dim = 4, .num_classes = 3});
  EXPECT_EQ(model.param_count(), 3u * 5u);
  EXPECT_EQ(model.name(), "softmax-4x3");
}

TEST(SoftmaxRegressionTest, UniformParamsGiveLogKLoss) {
  SoftmaxRegression model(
      SoftmaxRegressionConfig{.feature_dim = 2, .num_classes = 4, .l2 = 0.0});
  data::Dataset d(2, 4);
  d.add(std::vector<double>{1.0, -1.0}, 2);
  const linalg::Vector zeros(model.param_count());
  EXPECT_NEAR(model.loss(zeros, d), std::log(4.0), 1e-12);
}

TEST(SoftmaxRegressionTest, SoftmaxInplaceIsStableAndNormalized) {
  std::vector<double> logits{1000.0, 1001.0, 999.0};
  softmax_inplace(logits);
  double sum = 0.0;
  for (const double p : logits) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(logits[1], logits[0]);
  EXPECT_GT(logits[0], logits[2]);
}

TEST(SoftmaxRegressionTest, GradientMatchesNumerical) {
  common::Rng rng(5);
  SoftmaxRegression model(
      SoftmaxRegressionConfig{.feature_dim = 3, .num_classes = 3,
                              .l2 = 0.02});
  const data::Dataset d = multiclass_blobs(10, 3, 3, rng);
  common::Rng init(6);
  const linalg::Vector params = model.initial_params(init);
  const auto lg = model.loss_gradient(params, d);
  const linalg::Vector numeric = numerical_gradient(model, params, d);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(lg.gradient[i], numeric[i], 1e-5) << "component " << i;
  }
}

TEST(SoftmaxRegressionTest, LearnsMulticlassBlobs) {
  common::Rng rng(7);
  SoftmaxRegression model(
      SoftmaxRegressionConfig{.feature_dim = 4, .num_classes = 4});
  const data::Dataset d = multiclass_blobs(40, 4, 4, rng);
  common::Rng init(8);
  linalg::Vector params = model.initial_params(init);
  for (int step = 0; step < 400; ++step) {
    params.axpy(-0.2, model.gradient(params, d));
  }
  EXPECT_GT(model.accuracy(params, d), 0.95);
}

// ------------------------------------------------------------------ Mlp

TEST(MlpTest, ParamCountMatchesPaperModel) {
  Mlp mlp(MlpConfig{});  // 784–30–10
  // 30·784 + 30 + 10·30 + 10 = 23 860 (the paper's ~10^5-parameter class
  // of "3-layer network" models).
  EXPECT_EQ(mlp.param_count(), 23'860u);
  EXPECT_EQ(mlp.name(), "mlp-784-30-10");
}

TEST(MlpTest, OffsetsPartitionTheFlatVector) {
  MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_dim = 4;
  cfg.output_dim = 3;
  Mlp mlp(cfg);
  EXPECT_EQ(mlp.w1_offset(), 0u);
  EXPECT_EQ(mlp.b1_offset(), 20u);
  EXPECT_EQ(mlp.w2_offset(), 24u);
  EXPECT_EQ(mlp.b2_offset(), 36u);
  EXPECT_EQ(mlp.param_count(), 39u);
}

TEST(MlpTest, GradientMatchesNumerical) {
  common::Rng rng(9);
  MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden_dim = 5;
  cfg.output_dim = 3;
  cfg.l2 = 0.01;
  Mlp mlp(cfg);
  const data::Dataset d = multiclass_blobs(8, 6, 3, rng);
  common::Rng init(10);
  const linalg::Vector params = mlp.initial_params(init);
  const auto lg = mlp.loss_gradient(params, d);
  EXPECT_NEAR(lg.loss, mlp.loss(params, d), 1e-12);
  const linalg::Vector numeric = numerical_gradient(mlp, params, d, 1e-5);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(lg.gradient[i], numeric[i], 2e-5) << "component " << i;
  }
}

TEST(MlpTest, LearnsXorLikeProblem) {
  // XOR is the classic not-linearly-separable check that the hidden
  // layer actually contributes.
  data::Dataset d(2, 2);
  for (int repeat = 0; repeat < 10; ++repeat) {
    d.add(std::vector<double>{0.0, 0.0}, 0);
    d.add(std::vector<double>{1.0, 1.0}, 0);
    d.add(std::vector<double>{1.0, 0.0}, 1);
    d.add(std::vector<double>{0.0, 1.0}, 1);
  }
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 8;
  cfg.output_dim = 2;
  cfg.l2 = 0.0;
  cfg.init_scale = 2.0;
  Mlp mlp(cfg);
  common::Rng init(11);
  linalg::Vector params = mlp.initial_params(init);
  for (int step = 0; step < 3000; ++step) {
    params.axpy(-1.0, mlp.gradient(params, d));
  }
  EXPECT_DOUBLE_EQ(mlp.accuracy(params, d), 1.0);
}

TEST(MlpTest, AccuracyOnEmptyDataIsOne) {
  Mlp mlp(MlpConfig{});
  common::Rng init(12);
  const data::Dataset empty(784, 10);
  EXPECT_DOUBLE_EQ(mlp.accuracy(mlp.initial_params(init), empty), 1.0);
}

// A dataset with more classes than the model has outputs would read
// probs[label] (or logits[label]) past the end for the extra labels; the
// models refuse it before touching a sample.
TEST(ModelLabelRangeTest, MlpRefusesMoreClassesThanOutputs) {
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 3;
  cfg.output_dim = 10;
  const Mlp mlp(cfg);
  data::Dataset twelve(4, 12);
  twelve.add(std::vector<double>{0.1, 0.2, 0.3, 0.4}, 11);
  common::Rng init(1);
  const linalg::Vector params = mlp.initial_params(init);
  EXPECT_THROW(mlp.loss(params, twelve), common::ContractViolation);
  EXPECT_THROW(mlp.loss_gradient(params, twelve), common::ContractViolation);
  linalg::Vector gradient(mlp.param_count());
  EXPECT_THROW(mlp.loss_gradient_into(params, twelve, gradient.span()),
               common::ContractViolation);
  // Fewer classes than outputs is fine: the spare outputs never win.
  data::Dataset three(4, 3);
  three.add(std::vector<double>{0.1, 0.2, 0.3, 0.4}, 2);
  EXPECT_NO_THROW(mlp.loss_gradient(params, three));
}

TEST(ModelLabelRangeTest, SoftmaxRefusesMoreClassesThanItHas) {
  const SoftmaxRegression softmax(
      SoftmaxRegressionConfig{.feature_dim = 4, .num_classes = 10});
  data::Dataset twelve(4, 12);
  twelve.add(std::vector<double>{0.1, 0.2, 0.3, 0.4}, 11);
  common::Rng init(2);
  const linalg::Vector params = softmax.initial_params(init);
  EXPECT_THROW(softmax.loss(params, twelve), common::ContractViolation);
  EXPECT_THROW(softmax.loss_gradient(params, twelve),
               common::ContractViolation);
}

/// Gradient correctness across all models and several datasets —
/// the single most important invariant in the ML substrate.
struct GradientCase {
  const char* name;
  std::size_t seed;
};

// Names each case by its label and seed. gtest's default would print the
// raw bytes, including the label's address, which moves with every run.
void PrintTo(const GradientCase& c, std::ostream* os) {
  *os << c.name << "_seed" << c.seed;
}

class GradientPropertyTest : public ::testing::TestWithParam<GradientCase> {
};

TEST_P(GradientPropertyTest, AllModelsMatchNumericalGradient) {
  common::Rng rng(GetParam().seed);
  const data::Dataset binary = binary_blobs(12, 4, rng);
  const data::Dataset multi = multiclass_blobs(6, 4, 3, rng);

  std::vector<std::pair<std::unique_ptr<Model>, const data::Dataset*>>
      cases;
  cases.emplace_back(std::make_unique<LinearSvm>(LinearSvmConfig{
                         .feature_dim = 4, .l2 = 0.05}),
                     &binary);
  cases.emplace_back(
      std::make_unique<SoftmaxRegression>(SoftmaxRegressionConfig{
          .feature_dim = 4, .num_classes = 3, .l2 = 0.05}),
      &multi);
  MlpConfig mlp_cfg;
  mlp_cfg.input_dim = 4;
  mlp_cfg.hidden_dim = 3;
  mlp_cfg.output_dim = 3;
  cases.emplace_back(std::make_unique<Mlp>(mlp_cfg), &multi);

  for (const auto& [model, dataset] : cases) {
    common::Rng init(GetParam().seed * 13 + 1);
    const linalg::Vector params = model->initial_params(init);
    const auto lg = model->loss_gradient(params, *dataset);
    const linalg::Vector numeric =
        numerical_gradient(*model, params, *dataset, 1e-5);
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_NEAR(lg.gradient[i], numeric[i], 3e-5)
          << model->name() << " component " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientPropertyTest,
                         ::testing::Values(GradientCase{"a", 21},
                                           GradientCase{"b", 22},
                                           GradientCase{"c", 23},
                                           GradientCase{"d", 24}));

}  // namespace
}  // namespace snap::ml
