// Order statistics for the benchmark's samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (q in [0, 1]); 0 for no samples.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

}  // namespace perfbench
