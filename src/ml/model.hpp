// Differentiable model interface.
//
// Every model exposes its parameters as one flat snap::linalg::Vector —
// this is the representation the consensus layer mixes, the wire
// protocol serializes, and the APE controller thresholds. Losses are
// means over the provided samples (the paper's l_i = E_{ξ∼D_i} c(x;ξ))
// plus any model-owned regularization, so a node's objective is
// independent of its shard size.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "linalg/vector.hpp"

namespace snap::ml {

/// Loss value and gradient evaluated at the same point.
struct LossGradient {
  double loss = 0.0;
  linalg::Vector gradient;
};

class Model {
 public:
  virtual ~Model() = default;

  /// Dimension of the flat parameter vector.
  virtual std::size_t param_count() const noexcept = 0;

  /// Short human-readable name ("mlp-784-30-10", ...).
  virtual std::string name() const = 0;

  /// Mean loss over `data` at `params` (empty datasets cost 0 plus
  /// regularization). params.size() must equal param_count().
  virtual double loss(const linalg::Vector& params,
                      const data::Dataset& data) const = 0;

  /// Loss and gradient in one pass (gradient of the mean loss).
  virtual LossGradient loss_gradient(const linalg::Vector& params,
                                     const data::Dataset& data) const = 0;

  /// loss_gradient writing the gradient into `gradient` (param_count()
  /// doubles, overwritten) and returning the loss: the allocation-free
  /// form the training loop calls every round. Bitwise equal to
  /// loss_gradient. The default copies loss_gradient's result; models
  /// with a hot gradient override it and make loss_gradient the wrapper.
  virtual double loss_gradient_into(const linalg::Vector& params,
                                    const data::Dataset& data,
                                    std::span<double> gradient) const;

  /// Predicted class for one feature row.
  virtual std::size_t predict(const linalg::Vector& params,
                              std::span<const double> features) const = 0;

  /// Fresh initial parameters (e.g. scaled Gaussian weights).
  virtual linalg::Vector initial_params(common::Rng& rng) const = 0;

  /// Gradient only (default: via loss_gradient).
  linalg::Vector gradient(const linalg::Vector& params,
                          const data::Dataset& data) const {
    return loss_gradient(params, data).gradient;
  }

  /// Fraction of `data` classified correctly (1.0 for empty data). The
  /// default calls predict once per sample.
  virtual double accuracy(const linalg::Vector& params,
                          const data::Dataset& data) const;
};

}  // namespace snap::ml
