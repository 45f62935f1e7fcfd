// array_dc: a generated mixer-first receiver array (2212.03162-style) taken
// from GenSpec to a DC operating point. LU analyze does most of the work.
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "gen/templates.hpp"
#include "harness/common.hpp"
#include "harness/digest.hpp"
#include "harness/stage_split.hpp"
#include "harness/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "spice/op.hpp"
#include "spice/parser.hpp"

namespace perfbench {

using namespace rfmix;

namespace {

constexpr std::size_t kDevices = 59392;

// Mismatch draws solved concurrently per pass (a Monte-Carlo batch), one
// per lane on a 4-vCPU host. With every vCPU busy the pass time holds
// steady on a shared host; a lone single-threaded solve ran up to twice as
// fast whenever the host left its core alone, and no run length averaged
// that out.
constexpr std::size_t kDraws = 4;

// Solution digests pinned for mismatch seeds 1-8. Any seed is gated on the
// device count, a converged and finite op point, and one digest per draw in
// every pass (the solver's bit-exactness contract makes it independent of
// the thread count, which the traced run's single-lane pass checks); these
// seeds are also held to the pinned bytes.
constexpr const char* kPinnedDigest[8] = {
    "b275fe809a0b31b7", "b9910913d6704087", "14ab441f1f9eb895", "135be459c793e723",
    "52053134d9ecb926", "57c76df90e5bab67", "62f8e1fa90c3479a", "9c06f78ce6bb99ad",
};

}  // namespace

void run_array_dc(Context& ctx) {
  gen::GenSpec base;
  base.template_id = "rx_array";
  base.elements = 1024;
  base.paths = 4;
  base.sections = 6;
  base.zbb_c = 2e-12;
  base.mismatch = 0.05;
  // Seed s solves the mismatch draws (s-1)*kDraws+1 .. s*kDraws, so seeds 1
  // and 2 cover the pinned digests.
  std::array<gen::GenSpec, kDraws> specs;
  std::array<std::string, kDraws> pinned;
  for (std::size_t i = 0; i < kDraws; ++i) {
    specs[i] = base;
    specs[i].seed = (ctx.seed - 1) * kDraws + 1 + i;
    if (specs[i].seed >= 1 && specs[i].seed <= std::size(kPinnedDigest))
      pinned[i] = kPinnedDigest[specs[i].seed - 1];
  }
  std::printf("array_dc: rx_array 1024 x 4 paths x 6 sections, mismatch seeds %llu-%llu "
              "solved concurrently\n",
              static_cast<unsigned long long>(specs.front().seed),
              static_cast<unsigned long long>(specs.back().seed));

  struct Draw {
    spice::Circuit ckt;
    spice::Solution sol;
    std::string digest;
    bool finite = true;
  };
  std::array<std::string, kDraws> reference;  // the first pass's solution digests
  spice::Circuit last_ckt;
  spice::Solution last_sol;
  InProcessWorkload w;
  w.fans_out = true;
  w.pass = [&] {
    std::array<Draw, kDraws> draws;
    runtime::parallel_for(0, kDraws, [&](std::size_t i) {
      Draw& d = draws[i];
      std::string deck;
      {
        Span s("gen.render");
        deck = gen::render_netlist(specs[i]);
      }
      {
        Span s("spice.parse");
        d.ckt = spice::parse_netlist(deck);
      }
      {
        // Throws ConvergenceError unless some strategy converges.
        Span s("spice.op");
        d.sol = spice::dc_operating_point(d.ckt);
      }
      for (const double v : d.sol.raw()) d.finite = d.finite && std::isfinite(v);
      Digest digest;
      digest.numbers(d.sol.raw());
      d.digest = digest.hex();
    });
    for (std::size_t i = 0; i < kDraws; ++i) {
      const Draw& d = draws[i];
      if (reference[i].empty()) reference[i] = d.digest;
      const bool ok = d.ckt.devices().size() == kDevices && d.finite &&
                      d.digest == reference[i] && (pinned[i].empty() || d.digest == pinned[i]);
      ctx.report.check(ok, "array_dc: mismatch seed " + std::to_string(specs[i].seed) + ", " +
                               std::to_string(d.ckt.devices().size()) +
                               " devices (want 59392), finite " + std::to_string(d.finite) +
                               ", solution digest " + d.digest + " (first pass " +
                               reference[i] + ", pinned " +
                               (pinned[i].empty() ? "none" : pinned[i]) + ")");
    }
    last_ckt = std::move(draws[0].ckt);
    last_sol = std::move(draws[0].sol);
  };
  w.counters = {{"spice.newton.iterations", "spice.newton.iterations"},
                {"spice.lu.analyze", "spice.lu.analyze"},
                {"spice.lu.refactor", "spice.lu.refactor"}};
  w.layers = [&](double, double single_s) {
    const StageSplit st = split_stages(last_ckt, last_sol, 5, 3);
    ctx.report.set("spice.assemble_ms", st.assemble_ms);
    ctx.report.set("mathx.csc_ms", st.csc_ms);
    ctx.report.set("mathx.lu.analyze_ms", st.analyze_ms);
    ctx.report.set("mathx.lu.refactor_ms", st.refactor_ms);
    ctx.report.set("mathx.lu.solve_ms", st.solve_ms);
    ctx.report.set("mathx.lu.fill", st.fill);
    ctx.report.check(st.refactor_ok, "array_dc: refactor_from reproduces the analyzed pivots");
    // Against the single-lane pass: the analyze was timed on one lane too.
    const double share = ctx.report.get("spice.lu.analyze") * st.analyze_ms * 1e-3 / single_s;
    ctx.report.set("mathx.lu.analyze_share", share);
    std::printf("LU analyze: %.0f per pass x %.1f ms = %.1f%% of the %.3f s single-lane pass\n",
                ctx.report.get("spice.lu.analyze"), st.analyze_ms, 100.0 * share, single_s);
  };
  run_in_process(ctx, w);
}

}  // namespace perfbench
