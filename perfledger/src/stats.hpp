#pragma once
// Order statistics for repeated measurements.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfledger {

/// Nearest-rank percentile (q in [0, 100]) of a non-empty sample; 0 if
/// the sample is empty.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())) - 1.0);
  return static_cast<double>(v[idx]);
}

/// Median: the mean of the two middle values for an even count.
template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? static_cast<double>(v[n / 2])
               : (static_cast<double>(v[n / 2 - 1]) +
                  static_cast<double>(v[n / 2])) /
                     2.0;
}

/// The highest of p50/p90/p99/p99.9 that has at least ten samples above
/// it, or 100 (the maximum) when even the median has fewer.
inline double supportedPercentile(std::size_t n) {
  double best = 100.0;
  for (double q : {50.0, 90.0, 99.0, 99.9})
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) best = q;
  return best;
}

}  // namespace perfledger
