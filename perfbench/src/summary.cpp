#include "summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::optional<double> percentile(std::vector<double> values, double p) {
  if (values.empty() || !(p > 0.0 && p <= 1.0)) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Nearest rank: the smallest value with at least p*n samples at or below.
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kSamplesBeyondPercentile) return std::nullopt;
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no values");
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean of a value <= 0");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double cpu_per_wall(double cpu_s, double wall_s) {
  return wall_s > 0.0 ? cpu_s / wall_s : 0.0;
}

void FailureCount::add(Outcome outcome) {
  ++attempted;
  if (outcome == Outcome::kProven) return;
  ++failed;
  if (outcome != Outcome::kUndecided) ++hard_failed;
}

double FailureCount::failed_ratio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
