// Stable content digests for the correctness gates: FNV-1a (64-bit) over
// raw bytes, so a digest pins every bit of the values it covers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void number(double v) { bytes(&v, sizeof v); }
  void numbers(const std::vector<double>& v) { bytes(v.data(), v.size() * sizeof(double)); }

  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
