// Bitwise property suite for the register-tiled Mlp kernels, checked
// against the scalar reference kernels in oracle/reference_mlp.
//
// Each production accumulator adds its terms in the reference's order,
// so loss, gradient and predict must agree to the last bit (memcmp, not
// a tolerance) over random shapes: hidden widths on and off the tile
// (1, 4, 5, 6, 7, 13, 30, 31), odd input widths, 0, 1 and odd sample
// counts across the gradient's sample blocks, l2 > 0, saturated hidden
// units whose δ is exactly zero, and NaN / Inf parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "linalg/vector.hpp"
#include "ml/linear_svm.hpp"
#include "ml/mlp.hpp"
#include "ml/softmax_regression.hpp"
#include "oracle/reference_mlp.hpp"

namespace snap::ml {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// First index where two vectors differ bitwise (size() if none).
std::size_t first_difference(const linalg::Vector& a,
                             const linalg::Vector& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return i;
  }
  return a.size();
}

data::Dataset random_data(std::size_t samples, std::size_t dim,
                          std::size_t classes, common::Rng& rng) {
  data::Dataset d(dim, classes);
  std::vector<double> x(dim);
  for (std::size_t s = 0; s < samples; ++s) {
    for (double& xi : x) xi = rng.uniform(-1.0, 2.0);
    d.add(x, static_cast<std::size_t>(rng.uniform_u64(classes)));
  }
  return d;
}

/// Checks every kernel entry point against the reference on one
/// (model, params, data) triple.
void expect_matches_reference(const Mlp& mlp, const linalg::Vector& params,
                              const data::Dataset& data) {
  const double loss = mlp.loss(params, data);
  const double ref_loss = oracle::reference_mlp_loss(mlp, params, data);
  EXPECT_TRUE(same_bits(loss, ref_loss))
      << mlp.name() << " loss " << loss << " vs reference " << ref_loss;

  const LossGradient lg = mlp.loss_gradient(params, data);
  const LossGradient ref =
      oracle::reference_mlp_loss_gradient(mlp, params, data);
  EXPECT_TRUE(same_bits(lg.loss, ref.loss))
      << mlp.name() << " gradient-pass loss " << lg.loss << " vs "
      << ref.loss;
  const std::size_t diff = first_difference(lg.gradient, ref.gradient);
  EXPECT_EQ(diff, ref.gradient.size())
      << mlp.name() << " gradient differs at component " << diff << ": "
      << lg.gradient[diff] << " vs " << ref.gradient[diff];

  // The allocation-free entry point writes the same bytes over whatever
  // the buffer held.
  linalg::Vector into(mlp.param_count());
  into.fill(std::numeric_limits<double>::quiet_NaN());
  const double into_loss = mlp.loss_gradient_into(params, data, into.span());
  EXPECT_TRUE(same_bits(into_loss, ref.loss));
  EXPECT_TRUE(same_bits(into, ref.gradient)) << mlp.name();

  for (std::size_t s = 0; s < data.size(); ++s) {
    EXPECT_EQ(mlp.predict(params, data.features(s)),
              oracle::reference_mlp_predict(mlp, params, data.features(s)))
        << mlp.name() << " sample " << s;
  }
}

struct Shape {
  std::size_t hidden;
  std::size_t input;
  std::size_t output;
  std::size_t samples;
  double l2;
};

void PrintTo(const Shape& s, std::ostream* os) {
  *os << "h" << s.hidden << "_in" << s.input << "_out" << s.output << "_n"
      << s.samples << (s.l2 > 0.0 ? "_l2" : "");
}

class MlpKernelPropertyTest : public ::testing::TestWithParam<Shape> {};

TEST_P(MlpKernelPropertyTest, MatchesReferenceBitwise) {
  const Shape shape = GetParam();
  MlpConfig cfg;
  cfg.input_dim = shape.input;
  cfg.hidden_dim = shape.hidden;
  cfg.output_dim = shape.output;
  cfg.l2 = shape.l2;
  const Mlp mlp(cfg);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    common::Rng rng(seed * 1'000 + shape.hidden * 37 + shape.input);
    const data::Dataset data =
        random_data(shape.samples, shape.input, shape.output, rng);
    linalg::Vector params = mlp.initial_params(rng);
    // Non-zero biases, so every accumulator's starting value matters.
    for (std::size_t h = 0; h < shape.hidden; ++h) {
      params[mlp.b1_offset() + h] = rng.normal(0.0, 0.5);
    }
    expect_matches_reference(mlp, params, data);
  }
}

// Hidden widths around the 10-unit forward tile and the 4-row g_w1
// block; sample counts around the 2-sample pass and the 32-sample block.
INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpKernelPropertyTest,
    ::testing::Values(Shape{1, 1, 2, 1, 0.0}, Shape{4, 3, 2, 0, 0.0},
                      Shape{5, 7, 3, 3, 1e-3}, Shape{6, 9, 4, 5, 0.0},
                      Shape{7, 11, 3, 33, 1e-3}, Shape{13, 15, 5, 65, 0.0},
                      Shape{30, 63, 10, 125, 0.0},
                      Shape{30, 784, 10, 31, 1e-3},
                      Shape{31, 17, 10, 67, 1e-3},
                      Shape{31, 1, 2, 2, 0.0}),
    [](const ::testing::TestParamInfo<Shape>& shape_info) {
      std::ostringstream os;
      PrintTo(shape_info.param, &os);
      return os.str();
    });

TEST(MlpKernelEdgeTest, SaturatedUnitsSkipTheirZeroDelta) {
  // A unit with z ≳ 37 has σ(z) == 1.0 exactly, so σ'(z) = σ(1 − σ) is 0
  // and the kernels must skip that (sample, row) as the reference does:
  // rows h ≡ 1 (mod 5) always saturate through their bias, rows h ≡ 0
  // (mod 3) only on odd samples, whose feature 0 is large. The 4-row
  // g_w1 blocks therefore mix skipped and live rows.
  MlpConfig cfg;
  cfg.input_dim = 13;
  cfg.hidden_dim = 30;
  cfg.output_dim = 10;
  cfg.l2 = 1e-3;
  const Mlp mlp(cfg);
  common::Rng rng(77);
  data::Dataset data(cfg.input_dim, cfg.output_dim);
  std::vector<double> x(cfg.input_dim);
  for (std::size_t s = 0; s < 41; ++s) {
    for (double& xi : x) xi = rng.uniform(-1.0, 1.0);
    if (s % 2 == 1) x[0] = 80.0;
    data.add(x, static_cast<std::size_t>(rng.uniform_u64(cfg.output_dim)));
  }
  linalg::Vector params = mlp.initial_params(rng);
  for (std::size_t h = 0; h < cfg.hidden_dim; ++h) {
    double& w_feature0 = params[mlp.w1_offset() + h * cfg.input_dim];
    if (h % 5 == 1) {
      params[mlp.b1_offset() + h] = 60.0;
      w_feature0 = 0.0;
    }
    if (h % 3 == 0) w_feature0 = 1.0;
  }
  expect_matches_reference(mlp, params, data);

  // b1 carries no L2, so an always-saturated row's bias gradient is an
  // exact zero: the skip really happened.
  const LossGradient lg = mlp.loss_gradient(params, data);
  std::size_t zero_rows = 0;
  for (std::size_t h = 0; h < cfg.hidden_dim; ++h) {
    const double g = lg.gradient[mlp.b1_offset() + h];
    if (h % 5 == 1) {
      EXPECT_EQ(g, 0.0) << "row " << h;
    }
    if (g == 0.0) ++zero_rows;
  }
  EXPECT_EQ(zero_rows, 6u);
}

TEST(MlpKernelEdgeTest, NanAndInfParametersPropagateAsInTheReference) {
  MlpConfig cfg;
  cfg.input_dim = 9;
  cfg.hidden_dim = 13;
  cfg.output_dim = 4;
  cfg.l2 = 1e-3;
  const Mlp mlp(cfg);
  common::Rng rng(5);
  const data::Dataset data = random_data(7, cfg.input_dim, 4, rng);
  linalg::Vector params = mlp.initial_params(rng);
  params[mlp.w1_offset() + 3 * cfg.input_dim + 2] =
      std::numeric_limits<double>::quiet_NaN();
  params[mlp.w1_offset() + 8 * cfg.input_dim + 5] =
      std::numeric_limits<double>::infinity();
  expect_matches_reference(mlp, params, data);
  EXPECT_TRUE(std::isnan(mlp.loss(params, data)));
}

TEST(MlpKernelEdgeTest, InfiniteFeatureIsSkippedWithItsZeroDelta) {
  // An infinite feature drives every unit's z to ±inf, so σ is exactly 0
  // or 1 and every δ of that sample is 0. The skip is then the only thing
  // between g_w1 and 0·inf = NaN: the reference keeps that column finite,
  // and so must the blocked kernel.
  MlpConfig cfg;
  cfg.input_dim = 11;
  cfg.hidden_dim = 30;
  cfg.output_dim = 3;
  const Mlp mlp(cfg);
  common::Rng rng(9);
  data::Dataset data = random_data(6, cfg.input_dim, 3, rng);
  std::vector<double> x(cfg.input_dim, 0.5);
  x[4] = std::numeric_limits<double>::infinity();
  data.add(x, 1);
  const linalg::Vector params = mlp.initial_params(rng);
  expect_matches_reference(mlp, params, data);
  const LossGradient lg = mlp.loss_gradient(params, data);
  for (std::size_t h = 0; h < cfg.hidden_dim; ++h) {
    EXPECT_TRUE(std::isfinite(lg.gradient[mlp.w1_offset() + h * 11 + 4]))
        << "row " << h;
  }
}

TEST(ModelGradientIntoTest, EveryModelMatchesItsLossGradient) {
  // LinearSvm overrides loss_gradient_into natively; SoftmaxRegression
  // takes the default, which copies loss_gradient.
  common::Rng rng(31);
  const data::Dataset binary = random_data(21, 6, 2, rng);
  const data::Dataset multi = random_data(21, 6, 3, rng);
  const LinearSvm svm(LinearSvmConfig{.feature_dim = 6, .l2 = 0.05});
  const SoftmaxRegression softmax(SoftmaxRegressionConfig{
      .feature_dim = 6, .num_classes = 3, .l2 = 0.05});
  const std::pair<const Model*, const data::Dataset*> cases[] = {
      {&svm, &binary}, {&softmax, &multi}};
  for (const auto& [model, data] : cases) {
    const linalg::Vector params = model->initial_params(rng);
    const LossGradient lg = model->loss_gradient(params, *data);
    linalg::Vector into(model->param_count());
    into.fill(7.0);
    const double loss = model->loss_gradient_into(params, *data, into.span());
    EXPECT_TRUE(same_bits(loss, lg.loss)) << model->name();
    EXPECT_TRUE(same_bits(into, lg.gradient)) << model->name();
  }
}

}  // namespace
}  // namespace snap::ml
