// The Mlp kernels, written once over the vector width.
//
// Kernel<kLanes> computes with vectors of kLanes doubles. mlp.cpp
// instantiates it at 2 lanes for the baseline ISA and at 4 lanes inside
// functions compiled for AVX2 (every member is always_inline, so the
// whole kernel is compiled for its caller's ISA), and picks one instance
// per process. ml_kernel_property_test runs both widths on any host.
//
// Layout. Each call first copies W1 into a per-thread transposed panel
// wt[i·hp + h], followed by b1 (hp doubles), where hp is the hidden width
// rounded up to a whole forward tile and the padding is zero. A forward
// tile then loads kTileVecs·kLanes consecutive hidden units of one input
// with kTileVecs vector loads and adds them for kTileSamples samples.
// The gradient runs in blocks of kSampleBlock samples: the forward pass
// of the whole block, then per sample in order the output layer, its
// gradient, δ_hidden and the b1 gradient, then g_w1 += δ_hidden ⊗ x in
// register blocks of kRows rows × kColVecs·kLanes inputs, each block
// walking the block's samples in ascending order and skipping a
// (sample, row) whose δ is exactly zero.
//
// Why the bits cannot move. A lane's + and * round exactly like the
// scalar operations, the build turns off FMA contraction, and no
// instance is compiled with FMA. Every accumulator still starts where
// the scalar kernel starts (b1[h], b2[o], the gradient's zero) and adds
// the same products in the same order: ascending i for a pre-activation,
// ascending samples for a gradient element. So every result is bitwise
// that of the scalar kernels in tests/oracle/reference_mlp.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "ml/mlp.hpp"
#include "ml/softmax_regression.hpp"  // softmax_inplace

namespace snap::ml::mlp_kernel {

/// A vector of kLanes doubles. Loads and stores go through memcpy (any
/// double-aligned address); a scalar operand of a vector operation is
/// broadcast to every lane.
template <std::size_t kLanes>
struct Lanes;
template <>
struct Lanes<2> {
  typedef double Vec __attribute__((vector_size(16)));
};
template <>
struct Lanes<4> {
  typedef double Vec __attribute__((vector_size(32)));
};

/// Samples whose δ_hidden the gradient keeps before updating g_w1.
inline constexpr std::size_t kSampleBlock = 32;
inline constexpr std::size_t kNoLabel = std::numeric_limits<std::size_t>::max();

inline std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

inline double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }

/// Grow-only per-thread scratch: the model is const and shared by the
/// pool's threads, so its working buffers cannot live on it.
inline double* scratch(std::size_t doubles) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < doubles) buffer.resize(doubles);
  return buffer.data();
}

/// Output layer and softmax for one sample's hidden activations; fills
/// `probs` and returns the cross-entropy of `label` (0 when label ==
/// kNoLabel).
inline double output_layer(const MlpConfig& cfg, const double* w2,
                           const double* b2, const double* hidden,
                           std::size_t label, double* probs) {
  for (std::size_t o = 0; o < cfg.output_dim; ++o) {
    double acc = b2[o];
    const double* row = w2 + o * cfg.hidden_dim;
    for (std::size_t h = 0; h < cfg.hidden_dim; ++h) acc += row[h] * hidden[h];
    probs[o] = acc;
  }
  softmax_inplace({probs, cfg.output_dim});
  if (label == kNoLabel) return 0.0;
  return -std::log(std::max(probs[label], 1e-300));
}

/// ½·l2·(‖W1‖² + ‖W2‖²); with a gradient, also adds l2·w to its W1 and
/// W2 entries.
inline double add_l2(const Mlp& mlp, const double* params, double* gradient) {
  const MlpConfig& cfg = mlp.config();
  double reg = 0.0;
  const std::size_t ranges[2][2] = {
      {mlp.w1_offset(), cfg.hidden_dim * cfg.input_dim},
      {mlp.w2_offset(), cfg.output_dim * cfg.hidden_dim}};
  for (const auto& [offset, count] : ranges) {
    for (std::size_t i = offset; i < offset + count; ++i) {
      if (gradient != nullptr) gradient[i] += cfg.l2 * params[i];
      reg += params[i] * params[i];
    }
  }
  return 0.5 * cfg.l2 * reg;
}

template <std::size_t kLanes>
struct Kernel {
  using Vec = typename Lanes<kLanes>::Vec;

  /// Forward tile: kTileSamples samples × kTileVecs vectors of hidden
  /// units, one accumulator each. Both ISAs have sixteen vector
  /// registers; the tile keeps 10 (SSE2) or 8 (AVX2) accumulators there
  /// beside the broadcast inputs and the loaded weights.
  static constexpr std::size_t kTileVecs = kLanes == 2 ? 5 : 2;
  static constexpr std::size_t kTileSamples = kLanes == 2 ? 2 : 4;
  static constexpr std::size_t kTileUnits = kTileVecs * kLanes;
  /// g_w1 register block: kRows × kColVecs accumulators, plus kColVecs
  /// input vectors and one broadcast δ.
  static constexpr std::size_t kRows = 3;
  static constexpr std::size_t kColVecs = 3;
  static constexpr std::size_t kCols = kColVecs * kLanes;

  /// Per-call working set, carved from the thread's scratch.
  struct Work {
    std::size_t hp;     // panel width: hidden rounded up to a tile
    double* wt;         // in × hp transposed W1, then b1 (hp)
    double* z;          // kSampleBlock × hp pre-activations / activations
    double* delta;      // kSampleBlock × round_up(hidden, kRows) δ_hidden
    double* probs;      // output_dim
  };

  [[gnu::always_inline]] static Work prepare(const Mlp& mlp,
                                             const double* params) {
    const MlpConfig& cfg = mlp.config();
    const std::size_t in = cfg.input_dim;
    const std::size_t hid = cfg.hidden_dim;
    Work w;
    w.hp = round_up(hid, kTileUnits);
    const std::size_t hr = round_up(hid, kRows);
    w.wt = scratch((in + 1 + kSampleBlock) * w.hp + kSampleBlock * hr +
                   cfg.output_dim);
    w.z = w.wt + (in + 1) * w.hp;
    w.delta = w.z + kSampleBlock * w.hp;
    w.probs = w.delta + kSampleBlock * hr;
    const double* w1 = params + mlp.w1_offset();
    const double* b1 = params + mlp.b1_offset();
    for (std::size_t i = 0; i < in; ++i) {
      double* row = w.wt + i * w.hp;
      for (std::size_t h = 0; h < hid; ++h) row[h] = w1[h * in + i];
      std::fill(row + hid, row + w.hp, 0.0);
    }
    double* b1p = w.wt + in * w.hp;
    std::copy(b1, b1 + hid, b1p);
    std::fill(b1p + hid, b1p + w.hp, 0.0);
    return w;
  }

  /// z[s·hp + h] = b1[h] + Σ_i w1[h][i]·x_s[i] (ascending i) for kS
  /// samples and every h < hp.
  template <std::size_t kS>
  [[gnu::always_inline]] static void forward_tile(const Work& w,
                                                  std::size_t in,
                                                  const double* const* x,
                                                  double* z) {
    const double* b1 = w.wt + in * w.hp;
    for (std::size_t h0 = 0; h0 < w.hp; h0 += kTileUnits) {
      Vec acc[kS][kTileVecs];
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kTileVecs; ++v) {
        Vec b;
        std::memcpy(&b, b1 + h0 + v * kLanes, sizeof b);
#pragma GCC unroll 4
        for (std::size_t s = 0; s < kS; ++s) acc[s][v] = b;
      }
      for (std::size_t i = 0; i < in; ++i) {
        const double* row = w.wt + i * w.hp + h0;
#pragma GCC unroll 8
        for (std::size_t v = 0; v < kTileVecs; ++v) {
          Vec wv;
          std::memcpy(&wv, row + v * kLanes, sizeof wv);
#pragma GCC unroll 4
          for (std::size_t s = 0; s < kS; ++s) acc[s][v] += wv * x[s][i];
        }
      }
#pragma GCC unroll 4
      for (std::size_t s = 0; s < kS; ++s) {
        double* zs = z + s * w.hp + h0;
#pragma GCC unroll 8
        for (std::size_t v = 0; v < kTileVecs; ++v) {
          std::memcpy(zs + v * kLanes, &acc[s][v], sizeof(Vec));
        }
      }
    }
  }

  /// Hidden activations σ(W1·x + b1) of `count` ≤ kSampleBlock samples,
  /// written to w.z[k·hp + h] for h < hidden.
  [[gnu::always_inline]] static void forward_block(const Work& w,
                                                   std::size_t in,
                                                   std::size_t hid,
                                                   const double* const* x,
                                                   std::size_t count) {
    std::size_t k = 0;
    for (; k + kTileSamples <= count; k += kTileSamples) {
      forward_tile<kTileSamples>(w, in, x + k, w.z + k * w.hp);
    }
    for (; k < count; ++k) forward_tile<1>(w, in, x + k, w.z + k * w.hp);
    for (k = 0; k < count; ++k) {
      double* z = w.z + k * w.hp;
      for (std::size_t h = 0; h < hid; ++h) z[h] = sigmoid(z[h]);
    }
  }

  /// g[r][c0 + c] += δ[k][r]·x_k[c0 + c] for r < rows ≤ kRows and
  /// c < kVecs·kLanes, over the block's samples in ascending order;
  /// δ rows past `rows` are zero and skipped.
  template <std::size_t kVecs>
  [[gnu::always_inline]] static void outer_tile(
      double* g, std::size_t in, std::size_t rows, const double* delta,
      std::size_t hr, const bool* dense, const double* const* x,
      std::size_t count, std::size_t c0) {
    Vec acc[kRows][kVecs] = {};
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kRows; ++r) {
      if (r >= rows) break;
      const double* gr = g + r * in + c0;
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(&acc[r][v], gr + v * kLanes, sizeof(Vec));
      }
    }
    for (std::size_t k = 0; k < count; ++k) {
      Vec xv[kVecs];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(&xv[v], x[k] + c0 + v * kLanes, sizeof(Vec));
      }
      const double* dk = delta + k * hr;
      if (dense[k]) {
#pragma GCC unroll 4
        for (std::size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
          for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += dk[r] * xv[v];
        }
        continue;
      }
#pragma GCC unroll 4
      for (std::size_t r = 0; r < kRows; ++r) {
        if (dk[r] == 0.0) continue;
#pragma GCC unroll 4
        for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += dk[r] * xv[v];
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kRows; ++r) {
      if (r >= rows) break;
      double* gr = g + r * in + c0;
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(gr + v * kLanes, &acc[r][v], sizeof(Vec));
      }
    }
  }

  /// g_w1 += δ_hidden ⊗ x over `count` samples, one register block of
  /// rows × inputs at a time; the inputs past the last whole vector are
  /// added one at a time in the same order.
  [[gnu::always_inline]] static void outer_block(double* g_w1,
                                                 std::size_t in,
                                                 std::size_t hid,
                                                 const double* delta,
                                                 const double* const* x,
                                                 std::size_t count) {
    const std::size_t hr = round_up(hid, kRows);
    for (std::size_t h0 = 0; h0 < hid; h0 += kRows) {
      const std::size_t rows = std::min(kRows, hid - h0);
      double* g = g_w1 + h0 * in;
      const double* d = delta + h0;
      std::array<bool, kSampleBlock> dense{};
      for (std::size_t k = 0; k < count; ++k) {
        dense[k] = std::all_of(d + k * hr, d + k * hr + kRows,
                               [](double dh) { return dh != 0.0; });
      }
      std::size_t c0 = 0;
      for (; c0 + kCols <= in; c0 += kCols) {
        outer_tile<kColVecs>(g, in, rows, d, hr, dense.data(), x, count, c0);
      }
      for (; c0 + kLanes <= in; c0 += kLanes) {
        outer_tile<1>(g, in, rows, d, hr, dense.data(), x, count, c0);
      }
      for (; c0 < in; ++c0) {
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t k = 0; k < count; ++k) {
            const double dh = d[k * hr + r];
            if (dh != 0.0) g[r * in + c0] += dh * x[k][c0];
          }
        }
      }
    }
  }

  /// Mean cross-entropy over `data` plus the L2 term (Mlp::loss).
  [[gnu::always_inline]] static double loss(const Mlp& mlp,
                                            const double* params,
                                            const data::Dataset& data) {
    const MlpConfig& cfg = mlp.config();
    const Work w = prepare(mlp, params);
    const double* w2 = params + mlp.w2_offset();
    const double* b2 = params + mlp.b2_offset();
    std::array<const double*, kSampleBlock> x{};
    double acc = 0.0;
    for (std::size_t first = 0; first < data.size(); first += kSampleBlock) {
      const std::size_t block = std::min(kSampleBlock, data.size() - first);
      for (std::size_t k = 0; k < block; ++k) {
        x[k] = data.features(first + k).data();
      }
      forward_block(w, cfg.input_dim, cfg.hidden_dim, x.data(), block);
      for (std::size_t k = 0; k < block; ++k) {
        acc += output_layer(cfg, w2, b2, w.z + k * w.hp,
                            data.label(first + k), w.probs);
      }
    }
    const double mean =
        data.empty() ? 0.0 : acc / static_cast<double>(data.size());
    return mean + add_l2(mlp, params, nullptr);
  }

  /// Loss and exact backprop gradient of the mean loss, written over
  /// `gradient` (Mlp::loss_gradient_into).
  [[gnu::always_inline]] static double loss_gradient(
      const Mlp& mlp, const double* params, const data::Dataset& data,
      std::span<double> gradient) {
    const MlpConfig& cfg = mlp.config();
    const std::size_t in = cfg.input_dim;
    const std::size_t hid = cfg.hidden_dim;
    const std::size_t out = cfg.output_dim;
    const std::size_t hr = round_up(hid, kRows);
    const Work w = prepare(mlp, params);
    const double* w2 = params + mlp.w2_offset();
    const double* b2 = params + mlp.b2_offset();

    std::fill(gradient.begin(), gradient.end(), 0.0);
    double* g_w1 = gradient.data() + mlp.w1_offset();
    double* g_b1 = gradient.data() + mlp.b1_offset();
    double* g_w2 = gradient.data() + mlp.w2_offset();
    double* g_b2 = gradient.data() + mlp.b2_offset();
    std::array<const double*, kSampleBlock> x{};
    double loss_acc = 0.0;

    for (std::size_t first = 0; first < data.size(); first += kSampleBlock) {
      const std::size_t block = std::min(kSampleBlock, data.size() - first);
      for (std::size_t k = 0; k < block; ++k) {
        x[k] = data.features(first + k).data();
      }
      forward_block(w, in, hid, x.data(), block);

      // Per sample in order: output layer, its gradient, δ_hidden (kept
      // for outer_block, zero-padded to whole row blocks) and g_b1.
      for (std::size_t k = 0; k < block; ++k) {
        const std::size_t label = data.label(first + k);
        const double* h_act = w.z + k * w.hp;
        loss_acc += output_layer(cfg, w2, b2, h_act, label, w.probs);

        // Output layer: δ_o = p_o − 1{o == label}.
        for (std::size_t o = 0; o < out; ++o) {
          const double delta = w.probs[o] - (o == label ? 1.0 : 0.0);
          g_b2[o] += delta;
          double* g_row = g_w2 + o * hid;
          for (std::size_t h = 0; h < hid; ++h) g_row[h] += delta * h_act[h];
        }
        // Hidden layer: δ_h = σ'(z_h) Σ_o w2[o,h]·δ_o.
        double* dh = w.delta + k * hr;
        for (std::size_t h = 0; h < hid; ++h) {
          double back = 0.0;
          for (std::size_t o = 0; o < out; ++o) {
            back += w2[o * hid + h] * (w.probs[o] - (o == label ? 1.0 : 0.0));
          }
          dh[h] = back * h_act[h] * (1.0 - h_act[h]);
          if (dh[h] != 0.0) g_b1[h] += dh[h];
        }
        std::fill(dh + hid, dh + hr, 0.0);
      }
      outer_block(g_w1, in, hid, w.delta, x.data(), block);
    }

    if (!data.empty()) {
      const double inv = 1.0 / static_cast<double>(data.size());
      for (double& g : gradient) g *= inv;
      loss_acc *= inv;
    }
    return loss_acc + add_l2(mlp, params, gradient.data());
  }

  /// Arg-max class of each feature row, written to classes[k]
  /// (Mlp::predict and Mlp::accuracy).
  [[gnu::always_inline]] static void classify(
      const Mlp& mlp, const double* params,
      std::span<const double* const> rows, std::size_t* classes) {
    const MlpConfig& cfg = mlp.config();
    const Work w = prepare(mlp, params);
    const double* w2 = params + mlp.w2_offset();
    const double* b2 = params + mlp.b2_offset();
    for (std::size_t first = 0; first < rows.size(); first += kSampleBlock) {
      const std::size_t block = std::min(kSampleBlock, rows.size() - first);
      forward_block(w, cfg.input_dim, cfg.hidden_dim, rows.data() + first,
                    block);
      for (std::size_t k = 0; k < block; ++k) {
        output_layer(cfg, w2, b2, w.z + k * w.hp, kNoLabel, w.probs);
        classes[first + k] = static_cast<std::size_t>(
            std::max_element(w.probs, w.probs + cfg.output_dim) - w.probs);
      }
    }
  }
};

}  // namespace snap::ml::mlp_kernel
