#include "ml/softmax_regression.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/check.hpp"

namespace snap::ml {

void softmax_inplace(std::span<double> logits) {
  double max_logit = logits[0];
  for (const double l : logits) max_logit = std::max(max_logit, l);
  double sum = 0.0;
  for (double& l : logits) {
    l = std::exp(l - max_logit);
    sum += l;
  }
  for (double& l : logits) l /= sum;
}

SoftmaxRegression::SoftmaxRegression(const SoftmaxRegressionConfig& config)
    : config_(config) {
  SNAP_REQUIRE(config.feature_dim >= 1);
  SNAP_REQUIRE(config.num_classes >= 2);
  SNAP_REQUIRE(config.l2 >= 0.0);
}

std::string SoftmaxRegression::name() const {
  std::ostringstream os;
  os << "softmax-" << config_.feature_dim << "x" << config_.num_classes;
  return os.str();
}

void SoftmaxRegression::logits_for(const linalg::Vector& params,
                                   std::span<const double> features,
                                   std::span<double> logits) const {
  const std::size_t d = config_.feature_dim;
  for (std::size_t c = 0; c < config_.num_classes; ++c) {
    double acc = params[weight_count() + c];  // bias
    const std::size_t row = c * d;
    for (std::size_t i = 0; i < d; ++i) {
      acc += params[row + i] * features[i];
    }
    logits[c] = acc;
  }
}

double SoftmaxRegression::loss(const linalg::Vector& params,
                               const data::Dataset& data) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(data.feature_dim() == config_.feature_dim);
  SNAP_REQUIRE(data.num_classes() <= config_.num_classes);
  std::vector<double> logits(config_.num_classes);
  double acc = 0.0;
  for (std::size_t s = 0; s < data.size(); ++s) {
    logits_for(params, data.features(s), logits);
    softmax_inplace(logits);
    acc -= std::log(std::max(logits[data.label(s)], 1e-300));
  }
  const double mean =
      data.empty() ? 0.0 : acc / static_cast<double>(data.size());
  double reg = 0.0;
  for (std::size_t i = 0; i < weight_count(); ++i) {
    reg += params[i] * params[i];
  }
  return mean + 0.5 * config_.l2 * reg;
}

LossGradient SoftmaxRegression::loss_gradient(
    const linalg::Vector& params, const data::Dataset& data) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(data.feature_dim() == config_.feature_dim);
  SNAP_REQUIRE(data.num_classes() <= config_.num_classes);
  LossGradient out;
  out.gradient = linalg::Vector(param_count());
  std::vector<double> logits(config_.num_classes);
  const std::size_t d = config_.feature_dim;
  double loss_acc = 0.0;

  for (std::size_t s = 0; s < data.size(); ++s) {
    const auto x = data.features(s);
    logits_for(params, x, logits);
    softmax_inplace(logits);
    loss_acc -= std::log(std::max(logits[data.label(s)], 1e-300));
    for (std::size_t c = 0; c < config_.num_classes; ++c) {
      // ∂ℓ/∂logit_c = p_c − 1{c == label}
      const double delta =
          logits[c] - (c == data.label(s) ? 1.0 : 0.0);
      const std::size_t row = c * d;
      for (std::size_t i = 0; i < d; ++i) {
        out.gradient[row + i] += delta * x[i];
      }
      out.gradient[weight_count() + c] += delta;
    }
  }

  if (!data.empty()) {
    const double inv = 1.0 / static_cast<double>(data.size());
    out.gradient *= inv;
    loss_acc *= inv;
  }

  double reg = 0.0;
  for (std::size_t i = 0; i < weight_count(); ++i) {
    out.gradient[i] += config_.l2 * params[i];
    reg += params[i] * params[i];
  }
  out.loss = loss_acc + 0.5 * config_.l2 * reg;
  return out;
}

std::size_t SoftmaxRegression::predict(
    const linalg::Vector& params, std::span<const double> features) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(features.size() == config_.feature_dim);
  std::vector<double> logits(config_.num_classes);
  logits_for(params, features, logits);
  return static_cast<std::size_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

linalg::Vector SoftmaxRegression::initial_params(common::Rng& rng) const {
  linalg::Vector params(param_count());
  for (std::size_t i = 0; i < weight_count(); ++i) {
    params[i] = rng.normal(0.0, config_.init_scale);
  }
  return params;
}

}  // namespace snap::ml
