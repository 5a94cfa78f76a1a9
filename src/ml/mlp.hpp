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
// The hidden layer is register-tiled: one pass over the input computes
// up to ten hidden pre-activations for two samples at once, each in its
// own accumulator that starts at b1[h] and adds w1[h][i]·x[i] in
// ascending i. The gradient runs in blocks of samples: a first phase
// does the forward pass, the output-layer and b1 gradients and keeps
// every sample's δ_hidden; a second phase adds δ_hidden ⊗ x into g_w1
// four rows at a time (4 × in doubles, which stay in L1), looping over
// the block's samples in ascending order and skipping a (sample, row)
// whose δ is exactly zero. Every gradient element therefore still adds
// its samples in ascending order, so the results are bitwise those of
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
  /// Hidden activations σ(W1·x + b1) of `samples.size()` (1 or 2)
  /// samples, written to hidden[k·hidden_dim + h] for sample k.
  void hidden_layer(const double* params,
                    std::span<const double* const> samples,
                    double* hidden) const;
  /// Output layer and softmax for one sample's hidden activations; fills
  /// `probs` and returns the cross-entropy of `label` (0 when label ==
  /// SIZE_MAX).
  double output_layer(const double* params, const double* hidden,
                      std::size_t label, double* probs) const;
  /// Refuses data whose rows or labels do not fit the network.
  void require_fits(const linalg::Vector& params,
                    const data::Dataset& data) const;

  MlpConfig config_;
};

}  // namespace snap::ml
