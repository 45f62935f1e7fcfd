#include "harness/report.hpp"

#include <charconv>
#include <cmath>
#include <iostream>

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok && ++failed_ <= 10) std::cout << "CHECK FAILED: " << what << "\n";
}

std::string Report::result_line(bool correct) const {
  std::string out = "{\"correct\": ";
  out.append(correct ? "true" : "false")
      .append(", \"attempted\": ")
      .append(std::to_string(attempted_))
      .append(", \"failed\": ")
      .append(std::to_string(failed_))
      .append(", \"values\": {");
  const char* sep = "\"";
  for (const auto& [name, value] : values_) {
    out.append(sep).append(name).append("\": ").append(json_number(value));
    sep = ", \"";
  }
  out.append("}, \"samples\": {");
  sep = "\"";
  for (const auto& [name, values] : samples_) {
    out.append(sep).append(name).append("\": [");
    for (std::size_t i = 0; i < values.size(); ++i)
      out.append(i ? ", " : "").append(json_number(values[i]));
    out.append("]");
    sep = ", \"";
  }
  return out.append("}}");
}

}  // namespace perfbench
