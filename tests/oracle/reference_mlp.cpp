#include "oracle/reference_mlp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "ml/softmax_regression.hpp"  // softmax_inplace

namespace snap::oracle {

namespace {

double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }

/// Forward pass for one sample; fills hidden activations and output
/// probabilities. Returns the cross-entropy of `label` (ignored when
/// label == SIZE_MAX).
double forward(const ml::Mlp& mlp, const linalg::Vector& params,
               std::span<const double> features, std::size_t label,
               std::span<double> hidden, std::span<double> probs) {
  const std::size_t in = mlp.config().input_dim;
  const std::size_t hid = mlp.config().hidden_dim;
  const std::size_t out = mlp.config().output_dim;
  const double* w1 = params.data() + mlp.w1_offset();
  const double* b1 = params.data() + mlp.b1_offset();
  const double* w2 = params.data() + mlp.w2_offset();
  const double* b2 = params.data() + mlp.b2_offset();

  for (std::size_t h = 0; h < hid; ++h) {
    double acc = b1[h];
    const double* row = w1 + h * in;
    for (std::size_t i = 0; i < in; ++i) acc += row[i] * features[i];
    hidden[h] = sigmoid(acc);
  }
  for (std::size_t o = 0; o < out; ++o) {
    double acc = b2[o];
    const double* row = w2 + o * hid;
    for (std::size_t h = 0; h < hid; ++h) acc += row[h] * hidden[h];
    probs[o] = acc;
  }
  ml::softmax_inplace(probs);
  if (label == std::numeric_limits<std::size_t>::max()) return 0.0;
  return -std::log(std::max(probs[label], 1e-300));
}

}  // namespace

double reference_mlp_loss(const ml::Mlp& mlp, const linalg::Vector& params,
                          const data::Dataset& data) {
  const ml::MlpConfig& config = mlp.config();
  SNAP_REQUIRE(params.size() == mlp.param_count());
  SNAP_REQUIRE(data.feature_dim() == config.input_dim);
  SNAP_REQUIRE(data.num_classes() <= config.output_dim);
  std::vector<double> hidden(config.hidden_dim);
  std::vector<double> probs(config.output_dim);
  double acc = 0.0;
  for (std::size_t s = 0; s < data.size(); ++s) {
    acc += forward(mlp, params, data.features(s), data.label(s), hidden,
                   probs);
  }
  const double mean =
      data.empty() ? 0.0 : acc / static_cast<double>(data.size());

  double reg = 0.0;
  const std::size_t w1_count = config.hidden_dim * config.input_dim;
  const std::size_t w2_count = config.output_dim * config.hidden_dim;
  for (std::size_t i = 0; i < w1_count; ++i) {
    reg += params[mlp.w1_offset() + i] * params[mlp.w1_offset() + i];
  }
  for (std::size_t i = 0; i < w2_count; ++i) {
    reg += params[mlp.w2_offset() + i] * params[mlp.w2_offset() + i];
  }
  return mean + 0.5 * config.l2 * reg;
}

ml::LossGradient reference_mlp_loss_gradient(const ml::Mlp& mlp,
                                             const linalg::Vector& params,
                                             const data::Dataset& data) {
  const ml::MlpConfig& config = mlp.config();
  SNAP_REQUIRE(params.size() == mlp.param_count());
  SNAP_REQUIRE(data.feature_dim() == config.input_dim);
  SNAP_REQUIRE(data.num_classes() <= config.output_dim);

  const std::size_t in = config.input_dim;
  const std::size_t hid = config.hidden_dim;
  const std::size_t out = config.output_dim;
  const double* w2 = params.data() + mlp.w2_offset();

  ml::LossGradient result;
  result.gradient = linalg::Vector(mlp.param_count());
  double* g_w1 = result.gradient.data() + mlp.w1_offset();
  double* g_b1 = result.gradient.data() + mlp.b1_offset();
  double* g_w2 = result.gradient.data() + mlp.w2_offset();
  double* g_b2 = result.gradient.data() + mlp.b2_offset();

  std::vector<double> hidden(hid);
  std::vector<double> probs(out);
  std::vector<double> delta_hidden(hid);
  double loss_acc = 0.0;

  for (std::size_t s = 0; s < data.size(); ++s) {
    const auto x = data.features(s);
    const std::size_t label = data.label(s);
    loss_acc += forward(mlp, params, x, label, hidden, probs);

    // Output layer: δ_o = p_o − 1{o == label}.
    for (std::size_t o = 0; o < out; ++o) {
      const double delta = probs[o] - (o == label ? 1.0 : 0.0);
      g_b2[o] += delta;
      double* g_row = g_w2 + o * hid;
      for (std::size_t h = 0; h < hid; ++h) {
        g_row[h] += delta * hidden[h];
      }
    }
    // Hidden layer: δ_h = σ'(z_h) Σ_o w2[o,h]·δ_o.
    for (std::size_t h = 0; h < hid; ++h) {
      double back = 0.0;
      for (std::size_t o = 0; o < out; ++o) {
        back += w2[o * hid + h] * (probs[o] - (o == label ? 1.0 : 0.0));
      }
      delta_hidden[h] = back * hidden[h] * (1.0 - hidden[h]);
    }
    for (std::size_t h = 0; h < hid; ++h) {
      const double dh = delta_hidden[h];
      if (dh == 0.0) continue;
      g_b1[h] += dh;
      double* g_row = g_w1 + h * in;
      for (std::size_t i = 0; i < in; ++i) {
        g_row[i] += dh * x[i];
      }
    }
  }

  if (!data.empty()) {
    const double inv = 1.0 / static_cast<double>(data.size());
    result.gradient *= inv;
    loss_acc *= inv;
  }

  // L2 on both weight matrices.
  double reg = 0.0;
  const std::size_t w1_count = hid * in;
  const std::size_t w2_count = out * hid;
  for (std::size_t i = 0; i < w1_count; ++i) {
    const double w = params[mlp.w1_offset() + i];
    result.gradient[mlp.w1_offset() + i] += config.l2 * w;
    reg += w * w;
  }
  for (std::size_t i = 0; i < w2_count; ++i) {
    const double w = params[mlp.w2_offset() + i];
    result.gradient[mlp.w2_offset() + i] += config.l2 * w;
    reg += w * w;
  }
  result.loss = loss_acc + 0.5 * config.l2 * reg;
  return result;
}

std::size_t reference_mlp_predict(const ml::Mlp& mlp,
                                  const linalg::Vector& params,
                                  std::span<const double> features) {
  SNAP_REQUIRE(params.size() == mlp.param_count());
  SNAP_REQUIRE(features.size() == mlp.config().input_dim);
  std::vector<double> hidden(mlp.config().hidden_dim);
  std::vector<double> probs(mlp.config().output_dim);
  forward(mlp, params, features, std::numeric_limits<std::size_t>::max(),
          hidden, probs);
  return static_cast<std::size_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

}  // namespace snap::oracle
