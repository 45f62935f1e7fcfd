// Metric collection and the benchmark's result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const;
  /// One sample of a metric that the caller of the harness summarizes over
  /// several processes (setup_s: the median of several cold starts).
  void sample(const std::string& name, double value) { samples_[name].push_back(value); }

  /// Count one attempted operation; `ok` false counts it as failed and
  /// prints `what` as the reason (the first ten failures only).
  void check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The harness's last line: one JSON object with the keys correct,
  /// attempted, failed, values (every metric set, by name) and samples.
  /// run.py turns it into the benchmark's result in BENCHMARK.json's terms.
  std::string result_line(bool correct) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
