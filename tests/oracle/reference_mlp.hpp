// Test-only reference: the scalar Mlp kernels the register-tiled ones in
// src/ml/mlp.cpp replaced, kept verbatim — one dependent add chain per
// hidden unit, and the whole of g_w1 updated once per sample. Every
// accumulator in the production kernels adds its terms in the same
// order as here, so ml_kernel_property_test compares the two with
// memcmp, not a tolerance. Nothing under src/ links this library.
#pragma once

#include <cstddef>
#include <span>

#include "data/dataset.hpp"
#include "linalg/vector.hpp"
#include "ml/mlp.hpp"
#include "ml/model.hpp"

namespace snap::oracle {

/// Mean cross-entropy over `data` plus ½·l2·(‖W1‖² + ‖W2‖²).
double reference_mlp_loss(const ml::Mlp& mlp, const linalg::Vector& params,
                          const data::Dataset& data);

/// Loss and exact backprop gradient of the mean loss.
ml::LossGradient reference_mlp_loss_gradient(const ml::Mlp& mlp,
                                             const linalg::Vector& params,
                                             const data::Dataset& data);

/// Arg-max class of one feature row.
std::size_t reference_mlp_predict(const ml::Mlp& mlp,
                                  const linalg::Vector& params,
                                  std::span<const double> features);

}  // namespace snap::oracle
