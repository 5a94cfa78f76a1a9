#include "ml/mlp.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "ml/mlp_kernel.hpp"

namespace snap::ml {

namespace {

using Lanes2 = mlp_kernel::Kernel<2>;

/// One kernel instance's entry points.
struct Kernels {
  double (*loss)(const Mlp&, const double*, const data::Dataset&);
  double (*loss_gradient)(const Mlp&, const double*, const data::Dataset&,
                          std::span<double>);
  void (*classify)(const Mlp&, const double*, std::span<const double* const>,
                   std::size_t*);
};

#if defined(__x86_64__)
// The 4-lane instance, compiled for AVX2 (and not FMA: see
// mlp_kernel.hpp) because every kernel member inlines into these.
using Lanes4 = mlp_kernel::Kernel<4>;

__attribute__((target("avx2"))) double loss4(const Mlp& mlp,
                                             const double* params,
                                             const data::Dataset& data) {
  return Lanes4::loss(mlp, params, data);
}
__attribute__((target("avx2"))) double loss_gradient4(
    const Mlp& mlp, const double* params, const data::Dataset& data,
    std::span<double> gradient) {
  return Lanes4::loss_gradient(mlp, params, data, gradient);
}
__attribute__((target("avx2"))) void classify4(
    const Mlp& mlp, const double* params, std::span<const double* const> rows,
    std::size_t* classes) {
  Lanes4::classify(mlp, params, rows, classes);
}
#endif

/// The widest instance this CPU runs, picked once per process.
const Kernels& kernels() {
  static const Kernels picked = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      return Kernels{loss4, loss_gradient4, classify4};
    }
#endif
    return Kernels{Lanes2::loss, Lanes2::loss_gradient, Lanes2::classify};
  }();
  return picked;
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
  return kernels().loss(*this, params.data(), data);
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
  return kernels().loss_gradient(*this, params.data(), data, gradient);
}

std::size_t Mlp::predict(const linalg::Vector& params,
                         std::span<const double> features) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(features.size() == config_.input_dim);
  const double* row = features.data();
  std::size_t predicted = 0;
  kernels().classify(*this, params.data(), {&row, 1}, &predicted);
  return predicted;
}

double Mlp::accuracy(const linalg::Vector& params,
                     const data::Dataset& data) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(data.feature_dim() == config_.input_dim);
  if (data.empty()) return 1.0;
  std::vector<const double*> rows(data.size());
  for (std::size_t s = 0; s < data.size(); ++s) {
    rows[s] = data.features(s).data();
  }
  std::vector<std::size_t> predicted(data.size());
  kernels().classify(*this, params.data(), rows, predicted.data());
  std::size_t correct = 0;
  for (std::size_t s = 0; s < data.size(); ++s) {
    if (predicted[s] == data.label(s)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
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
