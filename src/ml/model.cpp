#include "ml/model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace snap::ml {

double Model::loss_gradient_into(const linalg::Vector& params,
                                 const data::Dataset& data,
                                 std::span<double> gradient) const {
  const LossGradient result = loss_gradient(params, data);
  SNAP_REQUIRE(gradient.size() == result.gradient.size());
  std::ranges::copy(result.gradient.span(), gradient.begin());
  return result.loss;
}

double Model::accuracy(const linalg::Vector& params,
                       const data::Dataset& data) const {
  if (data.empty()) return 1.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (predict(params, data.features(i)) == data.label(i)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace snap::ml
