#include "oracle/topk.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"

namespace snap::oracle {

linalg::Vector sparsify_top_k(const linalg::Vector& gradient,
                              std::size_t k) {
  if (k >= gradient.size()) return gradient;
  // nth_element on magnitude finds the cut; ties resolved toward lower
  // indices for determinism.
  std::vector<std::size_t> order(gradient.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(k),
                   order.end(), [&](std::size_t a, std::size_t b) {
                     const double ma = std::abs(gradient[a]);
                     const double mb = std::abs(gradient[b]);
                     if (ma != mb) return ma > mb;
                     return a < b;
                   });
  linalg::Vector out(gradient.size());
  for (std::size_t i = 0; i < k; ++i) {
    out[order[i]] = gradient[order[i]];
  }
  return out;
}

std::size_t topk_wire_bytes(std::size_t k) noexcept { return 12 * k; }

baselines::GradientCompressor make_topk_compressor(std::size_t k,
                                                   bool error_feedback) {
  SNAP_REQUIRE(k >= 1);
  struct State {
    std::unordered_map<std::size_t, linalg::Vector> residual;
  };
  auto state = std::make_shared<State>();
  return [state, k, error_feedback](
             const linalg::Vector& gradient,
             std::size_t worker) -> baselines::CompressedGradient {
    linalg::Vector working = gradient;
    if (error_feedback) {
      auto& residual = state->residual[worker];
      if (residual.size() != gradient.size()) {
        residual = linalg::Vector(gradient.size());
      }
      working += residual;
      baselines::CompressedGradient out;
      out.gradient = sparsify_top_k(working, k);
      residual = working;
      residual -= out.gradient;  // carry the dropped mass forward
      out.wire_bytes = topk_wire_bytes(std::min(k, gradient.size()));
      return out;
    }
    baselines::CompressedGradient out;
    out.gradient = sparsify_top_k(working, k);
    out.wire_bytes = topk_wire_bytes(std::min(k, gradient.size()));
    return out;
  };
}

baselines::ParameterServerConfig topk_config(
    baselines::ParameterServerConfig base, std::size_t k,
    bool error_feedback) {
  base.compressor = make_topk_compressor(k, error_feedback);
  return base;
}

}  // namespace snap::oracle
