// Order statistics for the benchmark's timings.
//
// Every timing is reported as its median plus the highest percentile of a
// fixed ladder that still has at least ten samples beyond it, together with
// the sample count. A percentile with fewer samples beyond it is one or two
// outliers, not a tail.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (need not be sorted); q in [0, 1].
/// Returns 0 for an empty input.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Number of samples strictly beyond the nearest-rank q-quantile of n.
std::size_t samples_beyond(std::size_t n, double q);

/// Highest q of the ladder {0.5, 0.9, 0.99, 0.999} with at least
/// `min_beyond` samples beyond it among n; 0 when not even the median
/// qualifies.
double tail_quantile(std::size_t n, std::size_t min_beyond = 10);

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_q = 0.0;  // 0 when no ladder percentile qualifies
  double tail = 0.0;    // value at tail_q (the maximum when tail_q == 0)
  double max = 0.0;
};

Summary summarize(const std::vector<double>& values);

/// "median 1.23 / p99 4.56 (n=2000)" with values printed in `unit`.
std::string describe(const Summary& s, const std::string& unit);

}  // namespace perfbench
