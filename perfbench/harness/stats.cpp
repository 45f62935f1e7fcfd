#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double tail_quantile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999})
    if (samples_beyond(n, q) >= min_beyond) best = q;
  return best;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = median(values);
  s.max = *std::max_element(values.begin(), values.end());
  s.tail_q = tail_quantile(s.n);
  s.tail = s.tail_q > 0.0 ? quantile(values, s.tail_q) : s.max;
  return s;
}

std::string describe(const Summary& s, const std::string& unit) {
  char buf[160];
  if (s.tail_q > 0.0) {
    std::snprintf(buf, sizeof buf, "median %.4g %s / p%g %.4g %s (n=%zu)", s.median,
                  unit.c_str(), s.tail_q * 100.0, s.tail, unit.c_str(), s.n);
  } else {
    std::snprintf(buf, sizeof buf, "median %.4g %s / max %.4g %s (n=%zu, too few for a tail)",
                  s.median, unit.c_str(), s.max, unit.c_str(), s.n);
  }
  return buf;
}

}  // namespace perfbench
