// Three-layer fully connected neural network.
//
// This is the paper's testbed model: 784 inputs, a hidden layer of 30
// "perceptrons" (sigmoid), 10 softmax outputs, cross-entropy loss —
// ~23.9k parameters. Flat layout:
//   [W1 (hidden × in, row-major) | b1 (hidden) |
//    W2 (out × hidden, row-major) | b2 (out)]
// The gradient is exact backprop over the full provided dataset (EXTRA
// uses deterministic local gradients); stochastic trainers pass a
// mini-batch subset instead.
//
// The kernels behind loss, loss_gradient_into, predict and accuracy
// live in ml/mlp_kernel.hpp: one template over the vector width, run at
// the widest width the CPU supports, whose results are bitwise those of
// the scalar one-unit-at-a-time kernels (tests/oracle/reference_mlp).
#pragma once

#include <cstddef>
#include <span>

#include "ml/model.hpp"

namespace snap::ml {

struct MlpConfig {
  std::size_t input_dim = 784;
  std::size_t hidden_dim = 30;
  std::size_t output_dim = 10;
  /// L2 strength on both weight matrices. The paper's "conventional"
  /// 3-layer network carries no weight decay, and Fig. 2's unchanged
  /// parameters (weights of always-zero input pixels) exist only when
  /// their gradients are exactly zero — so 0 is the faithful default.
  double l2 = 0.0;
  /// Weight init stddev is init_scale / sqrt(fan_in) (Xavier-style).
  double init_scale = 1.0;
};

class Mlp final : public Model {
 public:
  explicit Mlp(const MlpConfig& config);

  std::size_t param_count() const noexcept override;
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
  /// Classifies the whole of `data` in one forward pass.
  double accuracy(const linalg::Vector& params,
                  const data::Dataset& data) const override;
  linalg::Vector initial_params(common::Rng& rng) const override;

  const MlpConfig& config() const noexcept { return config_; }

  // Flat-layout offsets (exposed for tests).
  std::size_t w1_offset() const noexcept { return 0; }
  std::size_t b1_offset() const noexcept {
    return config_.hidden_dim * config_.input_dim;
  }
  std::size_t w2_offset() const noexcept {
    return b1_offset() + config_.hidden_dim;
  }
  std::size_t b2_offset() const noexcept {
    return w2_offset() + config_.output_dim * config_.hidden_dim;
  }

 private:
  /// Refuses data whose rows or labels do not fit the network.
  void require_fits(const linalg::Vector& params,
                    const data::Dataset& data) const;

  MlpConfig config_;
};

}  // namespace snap::ml
