// npath_sweep: the mixer-first N-path front end (1903.09564) — Zin/S11 of a
// 4-phase front end over 201 points, solved by the LPTV conversion-matrix
// engine and fanned out over the runtime pool.
#include <cmath>
#include <cstdio>

#include "harness/common.hpp"
#include "harness/digest.hpp"
#include "harness/trace.hpp"
#include "npath/zin.hpp"

namespace perfbench {

using namespace rfmix;

namespace {

constexpr int kPoints = 201;
constexpr double kStartHz = 0.5e9;
constexpr double kStopHz = 1.5e9;
constexpr const char* kSummaryDigest = "65a5e26852824ccc";

}  // namespace

void run_npath_sweep(Context& ctx) {
  // The front end and the grid are fixed; nothing in this workload is
  // drawn from the seed.
  npath::NpathSpec spec;
  spec.lo.phases = 4;
  spec.harmonics = 16;
  spec.f_lo_hz = 1e9;
  spec.zbb_c = 50e-12;
  std::vector<double> freqs(kPoints);
  const double step = (kStopHz - kStartHz) / (kPoints - 1);
  for (int i = 0; i < kPoints; ++i) freqs[static_cast<std::size_t>(i)] = kStartHz + step * i;
  std::printf("npath_sweep: %d-phase front end, K=%d, zbb_c %.0f pF, %d points %.2f-%.2f GHz\n",
              spec.lo.phases, spec.harmonics, spec.zbb_c * 1e12, kPoints, kStartHz / 1e9,
              kStopHz / 1e9);

  double solve_ms = 0.0;
  InProcessWorkload w;
  w.fans_out = true;
  w.pass = [&] {
    {
      // zin_sweep builds its own circuit; this times the same build alone.
      Span s("npath.build");
      npath::build_npath_circuit(spec);
    }
    const double solve0 = obs_timer_ms("lptv.conversion.solve");
    npath::ZinSweep sweep;
    {
      Span s("npath.sweep");
      sweep = npath::zin_sweep(spec, freqs);
    }
    solve_ms = obs_timer_ms("lptv.conversion.solve") - solve0;
    const npath::ZinSummary& z = sweep.summary;
    Digest d;
    for (const double v : {z.f_peak_hz, z.zin_peak_ohm, z.zin_floor_ohm, z.bw_3db_hz, z.q,
                           z.rerad_3lo_max})
      d.number(v);
    const bool tracks = std::abs(z.f_peak_hz - spec.f_lo_hz) <= step;
    char why[200];
    std::snprintf(why, sizeof why,
                  "npath_sweep: f_peak %.6g Hz vs f_lo %.6g Hz (grid step %.3g), digest %s "
                  "(pinned %s)",
                  z.f_peak_hz, spec.f_lo_hz, step, d.hex().c_str(), kSummaryDigest);
    ctx.report.check(tracks && d.hex() == kSummaryDigest, why);
  };
  w.counters = {{"lptv.lu.factorizations", "lptv.lu.factorizations"},
                {"lptv.lu.fallback", "lptv.lu.fallback"},
                {"lptv.lu.refactor", "lptv.lu.refactor"}};
  w.layers = [&](double, double single_s) {
    Report& r = ctx.report;
    const double fact = r.get("lptv.lu.factorizations");
    r.set("lptv.lu.reuse_ratio", fact > 0 ? r.get("lptv.lu.refactor") / fact : 0.0);
    r.set("lptv.solve_share", solve_ms * 1e-3 / single_s);
    std::printf("lptv conversion solves: %.1f ms of the %.3f s single-lane pass (%.1f%%)\n",
                solve_ms, single_s, 100.0 * solve_ms * 1e-3 / single_s);
  };
  run_in_process(ctx, w);
}

}  // namespace perfbench
