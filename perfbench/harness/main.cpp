// perfbench: the repository benchmark's harness (see ../README.md).
//
//   perfbench --workload <array_dc|mixer_paper|npath_sweep|svc_mix>
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//             [--setup-only 0|1]
//
// Prints human-readable notes, then as its last line one JSON object with
// the keys correct, attempted, failed, values and samples (Report::
// result_line). An untraced run measures the end-to-end metrics, a traced
// run the per-layer ones; run.py reports them under BENCHMARK.json's names
// and units. With --setup-only 1 the harness measures one set-up and exits.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <sys/stat.h>

#include "harness/common.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <array_dc|mixer_paper|npath_sweep|svc_mix> "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--setup-only 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Context ctx;
  ctx.t_start = perfbench::now_s();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") ctx.workload = value;
    else if (arg == "--seed") ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") ctx.seconds = std::atof(value.c_str());
    else if (arg == "--trace") ctx.trace = value == "1";
    else if (arg == "--out-dir") ctx.out_dir = value;
    else if (arg == "--setup-only") ctx.setup_only = value == "1";
    else return usage();
  }
  if (argc % 2 == 0 || ctx.seconds <= 0.0) return usage();
  ::mkdir(ctx.out_dir.c_str(), 0755);

  bool correct = true;
  try {
    if (ctx.workload == "array_dc") perfbench::run_array_dc(ctx);
    else if (ctx.workload == "mixer_paper") perfbench::run_mixer_paper(ctx);
    else if (ctx.workload == "npath_sweep") perfbench::run_npath_sweep(ctx);
    else if (ctx.workload == "svc_mix") perfbench::run_svc_mix(ctx);
    else return usage();
  } catch (const std::exception& e) {
    std::cout << "workload " << ctx.workload << " threw: " << e.what() << "\n";
    ctx.report.check(false, "workload completed");
    correct = false;
  }
  perfbench::Report& r = ctx.report;
  correct = correct && r.failed() == 0 && r.attempted() > 0;
  if (r.attempted() > 0)
    r.set("bench.failed_frac",
          static_cast<double>(r.failed()) / static_cast<double>(r.attempted()));
  std::cout << r.result_line(correct) << std::endl;
  return 0;
}
