#include "ml/linear_svm.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace snap::ml {

LinearSvm::LinearSvm(const LinearSvmConfig& config) : config_(config) {
  SNAP_REQUIRE(config.feature_dim >= 1);
  SNAP_REQUIRE(config.l2 >= 0.0);
}

std::string LinearSvm::name() const {
  std::ostringstream os;
  os << "linear-svm-" << config_.feature_dim;
  return os.str();
}

double LinearSvm::margin(const linalg::Vector& params,
                         std::span<const double> features) const {
  double m = params[config_.feature_dim];  // bias
  for (std::size_t i = 0; i < config_.feature_dim; ++i) {
    m += params[i] * features[i];
  }
  return m;
}

double LinearSvm::loss(const linalg::Vector& params,
                       const data::Dataset& data) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(data.feature_dim() == config_.feature_dim);
  double acc = 0.0;
  for (std::size_t s = 0; s < data.size(); ++s) {
    const double y = data.label(s) == 1 ? 1.0 : -1.0;
    const double slack = 1.0 - y * margin(params, data.features(s));
    if (slack > 0.0) acc += slack * slack;
  }
  const double mean =
      data.empty() ? 0.0 : acc / static_cast<double>(data.size());
  double reg = 0.0;
  for (std::size_t i = 0; i < config_.feature_dim; ++i) {
    reg += params[i] * params[i];
  }
  return mean + 0.5 * config_.l2 * reg;
}

LossGradient LinearSvm::loss_gradient(const linalg::Vector& params,
                                      const data::Dataset& data) const {
  LossGradient out;
  out.gradient = linalg::Vector(param_count());
  out.loss = loss_gradient_into(params, data, out.gradient.span());
  return out;
}

double LinearSvm::loss_gradient_into(const linalg::Vector& params,
                                     const data::Dataset& data,
                                     std::span<double> gradient) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(data.feature_dim() == config_.feature_dim);
  SNAP_REQUIRE(gradient.size() == param_count());
  std::fill(gradient.begin(), gradient.end(), 0.0);
  double loss_acc = 0.0;

  for (std::size_t s = 0; s < data.size(); ++s) {
    const auto x = data.features(s);
    const double y = data.label(s) == 1 ? 1.0 : -1.0;
    const double slack = 1.0 - y * margin(params, x);
    if (slack <= 0.0) continue;
    loss_acc += slack * slack;
    // d/dm (slack²) = −2·y·slack
    const double coeff = -2.0 * y * slack;
    for (std::size_t i = 0; i < config_.feature_dim; ++i) {
      gradient[i] += coeff * x[i];
    }
    gradient[config_.feature_dim] += coeff;
  }

  if (!data.empty()) {
    const double inv = 1.0 / static_cast<double>(data.size());
    for (double& g : gradient) g *= inv;
    loss_acc *= inv;
  }

  double reg = 0.0;
  for (std::size_t i = 0; i < config_.feature_dim; ++i) {
    gradient[i] += config_.l2 * params[i];
    reg += params[i] * params[i];
  }
  return loss_acc + 0.5 * config_.l2 * reg;
}

std::size_t LinearSvm::predict(const linalg::Vector& params,
                               std::span<const double> features) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(features.size() == config_.feature_dim);
  return margin(params, features) > 0.0 ? 1u : 0u;
}

linalg::Vector LinearSvm::initial_params(common::Rng& rng) const {
  linalg::Vector params(param_count());
  for (std::size_t i = 0; i < config_.feature_dim; ++i) {
    params[i] = rng.normal(0.0, config_.init_scale);
  }
  params[config_.feature_dim] = 0.0;
  return params;
}

}  // namespace snap::ml
