#pragma once
// Summary statistics the benchmark reports: percentiles that refuse to
// speak without enough samples behind them, geometric means, CPU/wall
// ratios, and the failure tally that decides `failed_ratio`.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile needs at least this many samples strictly above its rank,
/// otherwise it is a single sample's noise and is not reported.
constexpr std::size_t kSamplesBeyondPercentile = 10;

/// Nearest-rank percentile (`p` in (0, 1]) of `values`, or nullopt when
/// fewer than kSamplesBeyondPercentile samples lie beyond it.
std::optional<double> percentile(std::vector<double> values, double p);

/// Plain median (mean of the middle pair for even counts); 0 when empty.
/// For per-pass figures, where the percentile sample rule does not apply.
double median(std::vector<double> values);

/// Geometric mean of strictly positive values; throws std::invalid_argument
/// on an empty list or a value <= 0 (a zero area or delay is a broken
/// result, not a data point).
double geomean(const std::vector<double>& values);

/// Process CPU seconds per wall second over a span; 0 for an empty span.
double cpu_per_wall(double cpu_s, double wall_s);

/// Outcome of one attempted operation (a flow run or a served job).
enum class Outcome {
  kProven,      // returned a netlist proven equivalent to its input
  kUndecided,   // returned a netlist, but CEC did not decide
  kRefuted,     // returned a netlist CEC proved NOT equivalent
  kError,       // threw, or the server answered with an error frame
  kRefused,     // admission refused it (OVERLOADED and friends)
  kCancelled,   // a cancel flag or deadline stopped it
};

/// Tally of outcomes. Every outcome but kProven counts as failed for
/// `failed_ratio`; `hard_failed` leaves out kUndecided, which returned a
/// usable (simulation-checked) netlist whose proof is merely missing.
struct FailureCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t hard_failed = 0;

  void add(Outcome outcome);
  /// failed / attempted; 0 when nothing was attempted.
  double failed_ratio() const;
};

}  // namespace perfbench
