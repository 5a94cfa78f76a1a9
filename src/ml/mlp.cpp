#include "ml/mlp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "ml/softmax_regression.hpp"  // softmax_inplace

namespace snap::ml {

namespace {

// Two doubles in one register (SSE2 on x86-64, NEON on aarch64). Lane-wise
// + and * round exactly like the scalar operations, and the build turns
// off FMA contraction, so a lane's running sum is bit for bit the scalar
// sum it replaces.
using Pair = double __attribute__((vector_size(16)));

Pair load_pair(const double* p) noexcept {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) noexcept { std::memcpy(p, &v, sizeof v); }

/// Hidden units per forward tile are 2·kTilePairs: with two samples that
/// is ten vector accumulators, which fit x86-64's sixteen registers
/// beside the inputs.
constexpr std::size_t kTilePairs = 5;
/// g_w1 rows updated per pass over a sample's features.
constexpr std::size_t kRowBlock = 4;
/// Samples whose δ_hidden the gradient keeps before updating g_w1.
constexpr std::size_t kSampleBlock = 32;
constexpr std::size_t kNoLabel = std::numeric_limits<std::size_t>::max();

double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }

/// Pre-activations z[k][h] = b1[h] + Σ_i w1[h][i]·x_k[i] (ascending i) of
/// the hidden units h0 … h0 + 2·kPairs − 1 that exist, for kSamples
/// samples. Lane 0 of pair p carries unit h0 + 2p and lane 1 unit
/// h0 + 2p + 1; a missing last unit repeats its partner's row and its
/// lane is discarded.
template <std::size_t kSamples, std::size_t kPairs>
void hidden_tile(const double* w1, const double* b1, std::size_t in,
                 std::size_t hid, std::size_t h0,
                 std::span<const double* const> x, double* z) {
  std::array<const double*, kPairs> lo{};
  std::array<const double*, kPairs> hi{};
  std::array<std::array<Pair, kPairs>, kSamples> acc{};
#pragma GCC unroll 8
  for (std::size_t p = 0; p < kPairs; ++p) {
    const std::size_t h = h0 + 2 * p;
    const bool has_hi = h + 1 < hid;
    lo[p] = w1 + h * in;
    hi[p] = has_hi ? lo[p] + in : lo[p];
#pragma GCC unroll 2
    for (std::size_t k = 0; k < kSamples; ++k) {
      acc[k][p] = Pair{b1[h], has_hi ? b1[h + 1] : 0.0};
    }
  }
  for (std::size_t i = 0; i < in; ++i) {
    std::array<Pair, kSamples> xi;
#pragma GCC unroll 2
    for (std::size_t k = 0; k < kSamples; ++k) xi[k] = Pair{x[k][i], x[k][i]};
#pragma GCC unroll 8
    for (std::size_t p = 0; p < kPairs; ++p) {
      const Pair w = {lo[p][i], hi[p][i]};
#pragma GCC unroll 2
      for (std::size_t k = 0; k < kSamples; ++k) acc[k][p] += w * xi[k];
    }
  }
#pragma GCC unroll 8
  for (std::size_t p = 0; p < kPairs; ++p) {
    const std::size_t h = h0 + 2 * p;
#pragma GCC unroll 2
    for (std::size_t k = 0; k < kSamples; ++k) {
      z[k * hid + h] = acc[k][p][0];
      if (h + 1 < hid) z[k * hid + h + 1] = acc[k][p][1];
    }
  }
}

template <std::size_t kSamples>
void hidden_preactivations(const double* w1, const double* b1,
                           std::size_t in, std::size_t hid,
                           std::span<const double* const> x, double* z) {
  for (std::size_t h0 = 0; h0 < hid; h0 += 2 * kTilePairs) {
    switch (std::min(kTilePairs, (hid - h0 + 1) / 2)) {
      case 1: hidden_tile<kSamples, 1>(w1, b1, in, hid, h0, x, z); break;
      case 2: hidden_tile<kSamples, 2>(w1, b1, in, hid, h0, x, z); break;
      case 3: hidden_tile<kSamples, 3>(w1, b1, in, hid, h0, x, z); break;
      case 4: hidden_tile<kSamples, 4>(w1, b1, in, hid, h0, x, z); break;
      default: hidden_tile<kSamples, 5>(w1, b1, in, hid, h0, x, z); break;
    }
  }
}
static_assert(kTilePairs == 5, "hidden_preactivations dispatches 1..5 pairs");

/// g[r][i] += dh[r]·x[i] for kRows consecutive rows of length `in`.
template <std::size_t kRows>
void add_outer(double* g, std::size_t in, const double* dh,
               const double* x) {
  std::array<Pair, kRows> d;
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kRows; ++r) d[r] = Pair{dh[r], dh[r]};
  std::size_t i = 0;
  for (; i + 2 <= in; i += 2) {
    const Pair xi = load_pair(x + i);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kRows; ++r) {
      double* row = g + r * in + i;
      store_pair(row, load_pair(row) + d[r] * xi);
    }
  }
  for (; i < in; ++i) {
    for (std::size_t r = 0; r < kRows; ++r) g[r * in + i] += dh[r] * x[i];
  }
}

/// Grow-only per-thread scratch: the model is const and shared by the
/// pool's threads, so its working buffers cannot live on it.
double* scratch(std::size_t doubles) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < doubles) buffer.resize(doubles);
  return buffer.data();
}

}  // namespace

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  SNAP_REQUIRE(config.input_dim >= 1);
  SNAP_REQUIRE(config.hidden_dim >= 1);
  SNAP_REQUIRE(config.output_dim >= 2);
  SNAP_REQUIRE(config.l2 >= 0.0);
}

std::size_t Mlp::param_count() const noexcept {
  return config_.hidden_dim * config_.input_dim + config_.hidden_dim +
         config_.output_dim * config_.hidden_dim + config_.output_dim;
}

std::string Mlp::name() const {
  std::ostringstream os;
  os << "mlp-" << config_.input_dim << "-" << config_.hidden_dim << "-"
     << config_.output_dim;
  return os.str();
}

void Mlp::hidden_layer(const double* params,
                       std::span<const double* const> samples,
                       double* hidden) const {
  const std::size_t in = config_.input_dim;
  const std::size_t hid = config_.hidden_dim;
  const double* w1 = params + w1_offset();
  const double* b1 = params + b1_offset();
  if (samples.size() == 2) {
    hidden_preactivations<2>(w1, b1, in, hid, samples, hidden);
  } else {
    hidden_preactivations<1>(w1, b1, in, hid, samples, hidden);
  }
  for (std::size_t j = 0; j < samples.size() * hid; ++j) {
    hidden[j] = sigmoid(hidden[j]);
  }
}

double Mlp::output_layer(const double* params, const double* hidden,
                         std::size_t label, double* probs) const {
  const std::size_t hid = config_.hidden_dim;
  const std::size_t out = config_.output_dim;
  const double* w2 = params + w2_offset();
  const double* b2 = params + b2_offset();
  for (std::size_t o = 0; o < out; ++o) {
    double acc = b2[o];
    const double* row = w2 + o * hid;
    for (std::size_t h = 0; h < hid; ++h) acc += row[h] * hidden[h];
    probs[o] = acc;
  }
  softmax_inplace({probs, out});
  if (label == kNoLabel) return 0.0;
  return -std::log(std::max(probs[label], 1e-300));
}

void Mlp::require_fits(const linalg::Vector& params,
                       const data::Dataset& data) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(data.feature_dim() == config_.input_dim);
  SNAP_REQUIRE_MSG(data.num_classes() <= config_.output_dim,
                   data.num_classes() << " classes for "
                                      << config_.output_dim << " outputs");
}

double Mlp::loss(const linalg::Vector& params,
                 const data::Dataset& data) const {
  require_fits(params, data);
  const std::size_t hid = config_.hidden_dim;
  double* hidden = scratch(2 * hid + config_.output_dim);
  double* probs = hidden + 2 * hid;
  double acc = 0.0;
  for (std::size_t s = 0; s < data.size(); s += 2) {
    const std::size_t count = std::min<std::size_t>(2, data.size() - s);
    const std::array<const double*, 2> x = {
        data.features(s).data(),
        count == 2 ? data.features(s + 1).data() : nullptr};
    hidden_layer(params.data(), {x.data(), count}, hidden);
    for (std::size_t k = 0; k < count; ++k) {
      acc += output_layer(params.data(), hidden + k * hid,
                          data.label(s + k), probs);
    }
  }
  const double mean =
      data.empty() ? 0.0 : acc / static_cast<double>(data.size());

  double reg = 0.0;
  const std::size_t w1_count = config_.hidden_dim * config_.input_dim;
  const std::size_t w2_count = config_.output_dim * config_.hidden_dim;
  for (std::size_t i = 0; i < w1_count; ++i) {
    reg += params[w1_offset() + i] * params[w1_offset() + i];
  }
  for (std::size_t i = 0; i < w2_count; ++i) {
    reg += params[w2_offset() + i] * params[w2_offset() + i];
  }
  return mean + 0.5 * config_.l2 * reg;
}

LossGradient Mlp::loss_gradient(const linalg::Vector& params,
                                const data::Dataset& data) const {
  LossGradient result;
  result.gradient = linalg::Vector(param_count());
  result.loss = loss_gradient_into(params, data, result.gradient.span());
  return result;
}

double Mlp::loss_gradient_into(const linalg::Vector& params,
                               const data::Dataset& data,
                               std::span<double> gradient) const {
  require_fits(params, data);
  SNAP_REQUIRE(gradient.size() == param_count());

  const std::size_t in = config_.input_dim;
  const std::size_t hid = config_.hidden_dim;
  const std::size_t out = config_.output_dim;
  const double* w2 = params.data() + w2_offset();

  std::fill(gradient.begin(), gradient.end(), 0.0);
  double* g_w1 = gradient.data() + w1_offset();
  double* g_b1 = gradient.data() + b1_offset();
  double* g_w2 = gradient.data() + w2_offset();
  double* g_b2 = gradient.data() + b2_offset();

  double* hidden = scratch(2 * hid + out + kSampleBlock * hid);
  double* probs = hidden + 2 * hid;
  double* delta_hidden = probs + out;  // kSampleBlock rows of hid
  std::array<const double*, kSampleBlock> x{};
  double loss_acc = 0.0;

  for (std::size_t first = 0; first < data.size(); first += kSampleBlock) {
    const std::size_t block = std::min(kSampleBlock, data.size() - first);
    for (std::size_t k = 0; k < block; ++k) {
      x[k] = data.features(first + k).data();
    }

    // Phase 1, per sample in order: forward, output-layer gradient,
    // δ_hidden (kept for phase 2) and the b1 gradient.
    for (std::size_t k = 0; k < block; k += 2) {
      const std::size_t count = std::min<std::size_t>(2, block - k);
      hidden_layer(params.data(), {x.data() + k, count}, hidden);
      for (std::size_t t = 0; t < count; ++t) {
        const std::size_t label = data.label(first + k + t);
        const double* h_act = hidden + t * hid;
        loss_acc += output_layer(params.data(), h_act, label, probs);

        // Output layer: δ_o = p_o − 1{o == label}.
        for (std::size_t o = 0; o < out; ++o) {
          const double delta = probs[o] - (o == label ? 1.0 : 0.0);
          g_b2[o] += delta;
          double* g_row = g_w2 + o * hid;
          for (std::size_t h = 0; h < hid; ++h) {
            g_row[h] += delta * h_act[h];
          }
        }
        // Hidden layer: δ_h = σ'(z_h) Σ_o w2[o,h]·δ_o.
        double* dh = delta_hidden + (k + t) * hid;
        for (std::size_t h = 0; h < hid; ++h) {
          double back = 0.0;
          for (std::size_t o = 0; o < out; ++o) {
            back += w2[o * hid + h] * (probs[o] - (o == label ? 1.0 : 0.0));
          }
          dh[h] = back * h_act[h] * (1.0 - h_act[h]);
          if (dh[h] != 0.0) g_b1[h] += dh[h];
        }
      }
    }

    // Phase 2: g_w1 += δ_hidden ⊗ x, kRowBlock rows at a time, samples
    // in ascending order; a zero δ adds nothing, as in the scalar form.
    for (std::size_t h0 = 0; h0 < hid; h0 += kRowBlock) {
      const std::size_t rows = std::min(kRowBlock, hid - h0);
      double* g_rows = g_w1 + h0 * in;
      for (std::size_t k = 0; k < block; ++k) {
        const double* dh = delta_hidden + k * hid + h0;
        if (rows == kRowBlock &&
            std::all_of(dh, dh + kRowBlock, [](double d) { return d != 0.0; })) {
          add_outer<kRowBlock>(g_rows, in, dh, x[k]);
          continue;
        }
        for (std::size_t r = 0; r < rows; ++r) {
          if (dh[r] != 0.0) add_outer<1>(g_rows + r * in, in, dh + r, x[k]);
        }
      }
    }
  }

  if (!data.empty()) {
    const double inv = 1.0 / static_cast<double>(data.size());
    for (double& g : gradient) g *= inv;
    loss_acc *= inv;
  }

  // L2 on both weight matrices.
  double reg = 0.0;
  const std::size_t w1_count = hid * in;
  const std::size_t w2_count = out * hid;
  for (std::size_t i = 0; i < w1_count; ++i) {
    const double w = params[w1_offset() + i];
    gradient[w1_offset() + i] += config_.l2 * w;
    reg += w * w;
  }
  for (std::size_t i = 0; i < w2_count; ++i) {
    const double w = params[w2_offset() + i];
    gradient[w2_offset() + i] += config_.l2 * w;
    reg += w * w;
  }
  return loss_acc + 0.5 * config_.l2 * reg;
}

std::size_t Mlp::predict(const linalg::Vector& params,
                         std::span<const double> features) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(features.size() == config_.input_dim);
  double* hidden = scratch(config_.hidden_dim + config_.output_dim);
  double* probs = hidden + config_.hidden_dim;
  const double* x = features.data();
  hidden_layer(params.data(), {&x, 1}, hidden);
  output_layer(params.data(), hidden, kNoLabel, probs);
  return static_cast<std::size_t>(
      std::max_element(probs, probs + config_.output_dim) - probs);
}

linalg::Vector Mlp::initial_params(common::Rng& rng) const {
  linalg::Vector params(param_count());
  const double w1_scale =
      config_.init_scale / std::sqrt(static_cast<double>(config_.input_dim));
  const double w2_scale =
      config_.init_scale / std::sqrt(static_cast<double>(config_.hidden_dim));
  const std::size_t w1_count = config_.hidden_dim * config_.input_dim;
  const std::size_t w2_count = config_.output_dim * config_.hidden_dim;
  for (std::size_t i = 0; i < w1_count; ++i) {
    params[w1_offset() + i] = rng.normal(0.0, w1_scale);
  }
  for (std::size_t i = 0; i < w2_count; ++i) {
    params[w2_offset() + i] = rng.normal(0.0, w2_scale);
  }
  return params;
}

}  // namespace snap::ml
