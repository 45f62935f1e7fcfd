// The solver's stages, timed one by one at a solved point through the
// public spice/mathx calls: assemble, triplet->CSC, LU analyze, LU
// refactor against the analyzed symbolic, and the triangular solve.
#pragma once

#include <cstddef>

#include "spice/circuit.hpp"

namespace perfbench {

struct StageSplit {
  double assemble_ms = 0.0;
  double csc_ms = 0.0;
  double analyze_ms = 0.0;
  double refactor_ms = 0.0;
  double solve_ms = 0.0;
  double fill = 0.0;  // (L + U capacity) / nnz(A)
  std::size_t n = 0;
  std::size_t nnz = 0;
  bool refactor_ok = false;
};

/// Medians over `reps` repetitions of each stage (analyze runs
/// `analyze_reps` times: it dominates on large arrays).
StageSplit split_stages(const rfmix::spice::Circuit& ckt, const rfmix::spice::Solution& x,
                        int reps, int analyze_reps);

}  // namespace perfbench
