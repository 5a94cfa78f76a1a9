// L2-regularized linear SVM with squared hinge loss.
//
// This is the 24-parameter model of the paper's large-scale simulations
// (§V-B). The squared hinge max(0, 1 − y·m)² is used instead of the
// plain hinge so the objective is differentiable (EXTRA's analysis
// assumes Lipschitz gradients), and the λ/2‖w‖² term makes it strongly
// convex — the regime in which the paper's linear convergence bound (11)
// applies. Labels are stored as {0, 1} in the Dataset and mapped to
// y ∈ {−1, +1} internally. The flat parameter layout is [w (dim), b].
#pragma once

#include <cstddef>
#include <span>

#include "ml/model.hpp"

namespace snap::ml {

struct LinearSvmConfig {
  std::size_t feature_dim = 24;
  /// L2 regularization strength λ (applied to w only, not the bias).
  /// The default gives the squared-hinge objective a strongly convex
  /// floor (condition number ~L/λ), which is the regime the paper's
  /// linear-rate bound (11) assumes.
  double l2 = 1e-2;
  /// Initial weight scale for initial_params.
  double init_scale = 0.01;
};

class LinearSvm final : public Model {
 public:
  explicit LinearSvm(const LinearSvmConfig& config);

  std::size_t param_count() const noexcept override {
    return config_.feature_dim + 1;
  }
  std::string name() const override;

  double loss(const linalg::Vector& params,
              const data::Dataset& data) const override;
  LossGradient loss_gradient(const linalg::Vector& params,
                             const data::Dataset& data) const override;
  double loss_gradient_into(const linalg::Vector& params,
                            const data::Dataset& data,
                            std::span<double> gradient) const override;
  std::size_t predict(const linalg::Vector& params,
                      std::span<const double> features) const override;
  linalg::Vector initial_params(common::Rng& rng) const override;

  const LinearSvmConfig& config() const noexcept { return config_; }

 private:
  /// Decision margin w·x + b.
  double margin(const linalg::Vector& params,
                std::span<const double> features) const;

  LinearSvmConfig config_;
};

}  // namespace snap::ml
