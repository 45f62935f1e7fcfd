#include "harness/stage_split.hpp"

#include <cstdio>

#include "harness/common.hpp"
#include "mathx/sparse.hpp"
#include "spice/mna.hpp"
#include "spice/op.hpp"

namespace perfbench {

using namespace rfmix;

StageSplit split_stages(const spice::Circuit& ckt, const spice::Solution& x, int reps,
                        int analyze_reps) {
  const std::size_t n = static_cast<std::size_t>(ckt.layout().size());
  const double gmin = spice::NewtonOptions{}.gmin;
  spice::StampParams sp;
  sp.mode = spice::AnalysisMode::kDc;

  StageSplit out;
  mathx::TripletMatrix<double> g(n, n);
  mathx::VectorD b(n, 0.0);
  out.assemble_ms = 1e3 * median_time_s(reps, [&] {
    g = mathx::TripletMatrix<double>(n, n);
    b.assign(n, 0.0);
    spice::assemble_real(ckt, x, sp, gmin, g, b);
  });
  mathx::CscMatrix<double> a;
  out.csc_ms = 1e3 * median_time_s(reps, [&] {
    a = mathx::CscMatrix<double>(g);
  });
  mathx::SparseLuSymbolic<double> sym;
  mathx::SparseLu<double> lu;
  out.analyze_ms = 1e3 * median_time_s(analyze_reps, [&] {
    lu = mathx::SparseLu<double>(a, sym);
  });
  mathx::SparseLu<double> re;
  out.refactor_ok = true;
  out.refactor_ms = 1e3 * median_time_s(reps, [&] {
    out.refactor_ok = re.refactor_from(sym, a) && out.refactor_ok;
  });
  std::vector<double> sol;
  out.solve_ms = 1e3 * median_time_s(reps, [&] {
    sol = lu.solve(b);
  });
  out.n = n;
  out.nnz = a.nnz();
  out.fill = static_cast<double>(sym.l_capacity() + sym.u_capacity()) /
             static_cast<double>(a.nnz());
  std::printf("stage split at the solved point (n=%zu, nnz=%zu): assemble %.3f ms, csc %.3f ms, "
              "LU analyze %.3f ms, refactor %.3f ms, solve %.3f ms, fill %.2f\n",
              out.n, out.nnz, out.assemble_ms, out.csc_ms, out.analyze_ms, out.refactor_ms,
              out.solve_ms, out.fill);
  return out;
}

}  // namespace perfbench
