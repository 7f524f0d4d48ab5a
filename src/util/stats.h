// Small statistics helpers used by the simulator metrics and the benches.
#pragma once

#include <vector>

namespace flowtime::util {

/// Arithmetic mean; returns 0 for an empty input.
double mean(const std::vector<double>& values);

/// Population standard deviation; returns 0 for fewer than two samples.
double stddev(const std::vector<double>& values);

/// Exact quantile by nearest-rank on a copy of the data.
/// `q` in [0, 1] (clamped). Returns 0 for an empty input. This is the one
/// quantile convention in the codebase — obs::Histogram, the benches, the
/// simulator report and the trace reporter all route through these two
/// helpers.
double quantile(std::vector<double> values, double q);

/// Nearest-rank quantile over data the caller has ALREADY sorted ascending.
/// Lets batch consumers (e.g. obs::Histogram::quantiles) pay for one sort
/// and read many quantiles. `q` in [0, 1] (clamped); 0 for an empty input.
double sorted_quantile(const std::vector<double>& sorted, double q);

/// Largest value; returns 0 for an empty input.
double max_of(const std::vector<double>& values);

}  // namespace flowtime::util
