// mixer_paper: the paper's reconfigurable mixer (Fig. 8-10, Table I) in both
// modes through the transistor-level engines: PSS+PAC conversion gain at LO
// points across Fig. 8's band, PNOISE DSB NF at Fig. 9 IF points, and
// transient+FFT gain at the four-engine cross-validation point.
#include <atomic>
#include <cmath>
#include <cstdio>

#include "core/circuits.hpp"
#include "core/measurements.hpp"
#include "core/pac_transistor.hpp"
#include "harness/common.hpp"
#include "harness/digest.hpp"
#include "harness/stage_split.hpp"
#include "harness/trace.hpp"
#include "mathx/units.hpp"
#include "rf/spectrum.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/op.hpp"

namespace perfbench {

using namespace rfmix;
using core::MixerConfig;
using core::MixerMode;

namespace {

// LO points across Fig. 8's band; 2.4 GHz is the cross-validation LO.
// The counts are sized so PSS+PAC/PNOISE and the two transient runs each
// take about half of a pass's work.
const std::vector<double> kPacLoHz = {0.5e9, 0.75e9, 1.0e9, 1.5e9, 2.0e9, 2.4e9, 2.5e9, 3.0e9,
                                      3.5e9, 4.0e9, 4.5e9, 5.0e9, 5.5e9, 6.0e9, 6.5e9, 7.0e9};
// Fig. 9 IF points for PNOISE.
const std::vector<double> kPnoiseIfHz = {100e3, 1e6, 5e6, 10e6, 20e6};
constexpr double kCrossvalLoHz = 2.4e9;
constexpr double kCrossvalIfHz = 5e6;
constexpr double kCrossvalAmpV = 2e-3;
// PAC vs transient agreement EXPERIMENTS.md states for bench_engine_crossval.
constexpr double kCrossvalTolDb = 0.20;

constexpr const char* kValueDigest = "1478930d53744431";

enum class JobType { kPac, kPnoise, kTran };

struct Job {
  JobType type;
  MixerMode mode;
  double f_hz;  // LO for PAC, IF for PNOISE, IF offset for transient
};

struct JobResult {
  bool converged = false;
  double gain_db = 0.0;
  double extra = 0.0;  // PAC image gain / PNOISE NF
};

JobResult run_job(const Job& job) {
  MixerConfig cfg;
  cfg.mode = job.mode;
  JobResult r;
  switch (job.type) {
    case JobType::kPac: {
      Span s("core.pac");
      cfg.f_lo_hz = job.f_hz;
      const core::PacResult p = core::pac_conversion_gain(cfg, kCrossvalIfHz);
      r = {p.pss_converged, p.conversion_gain_db, p.image_gain_db};
      break;
    }
    case JobType::kPnoise: {
      Span s("core.pnoise");
      const core::PnoiseResult p = core::pac_nf_dsb(cfg, job.f_hz);
      r = {p.pss_converged, p.gain_db, p.nf_dsb_db};
      break;
    }
    case JobType::kTran: {
      // bench_engine_crossval's transient settings.
      cfg.rf_series_r = 50.0;
      std::unique_ptr<core::TransistorMixer> mixer;
      {
        Span s("core.build");
        mixer = core::build_transistor_mixer(cfg);
      }
      core::TransientMeasureOptions topt;
      topt.grid_hz = 1e6;
      topt.grid_periods = 1;
      topt.settle_periods = 0.4;
      topt.samples_per_lo = 20;
      core::RfStimulus stim;
      stim.freqs_hz = {mixer->config.f_lo_hz + job.f_hz};
      stim.amplitude = kCrossvalAmpV;
      rf::SampledWaveform w;
      {
        Span s("spice.tran");
        w = core::capture_if_output(*mixer, stim, topt);
      }
      Span s("rf.measure");
      r.converged = true;
      r.gain_db = mathx::db_from_voltage_ratio(rf::tone_amplitude(w, job.f_hz) / kCrossvalAmpV);
      break;
    }
  }
  return r;
}

double gain_of(const std::vector<Job>& jobs, const std::vector<JobResult>& res, JobType type,
               MixerMode mode, double f, bool nf = false) {
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (jobs[i].type == type && jobs[i].mode == mode && jobs[i].f_hz == f)
      return nf ? res[i].extra : res[i].gain_db;
  return std::nan("");
}

}  // namespace

void run_mixer_paper(Context& ctx) {
  // The paper's fixed design points: nothing here is drawn from the seed.
  // Longest jobs first (the two transient runs), so the lanes finish
  // together.
  std::vector<Job> jobs;
  for (const MixerMode mode : {MixerMode::kActive, MixerMode::kPassive})
    jobs.push_back({JobType::kTran, mode, kCrossvalIfHz});
  for (const MixerMode mode : {MixerMode::kActive, MixerMode::kPassive}) {
    for (const double f : kPacLoHz) jobs.push_back({JobType::kPac, mode, f});
    for (const double f : kPnoiseIfHz) jobs.push_back({JobType::kPnoise, mode, f});
  }
  std::printf("mixer_paper: %zu jobs (PAC at %zu LO points, PNOISE at %zu IF points, transient "
              "at the cross-validation point, both modes)\n",
              jobs.size(), kPacLoHz.size(), kPnoiseIfHz.size());

  double pss_ms = 0.0, matrix_timer_ms = 0.0;
  InProcessWorkload w;
  w.fans_out = true;
  w.pass = [&] {
    const double pss0 = obs_timer_ms("spice.pss");
    const double mat0 = obs_timer_ms("lptv.matrix.solve") + obs_timer_ms("lptv.matrix.noise");
    std::vector<JobResult> res(jobs.size());
    // One task per pool lane, each pulling the next job off a shared index,
    // so the two long transient runs start first on every pass whatever
    // order the pool hands tasks out in.
    std::atomic<std::size_t> next{0};
    const auto lanes = static_cast<std::size_t>(runtime::ThreadPool::current().concurrency());
    runtime::parallel_for(0, lanes, [&](std::size_t) {
      for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) res[i] = run_job(jobs[i]);
    });
    pss_ms = obs_timer_ms("spice.pss") - pss0;
    matrix_timer_ms =
        obs_timer_ms("lptv.matrix.solve") + obs_timer_ms("lptv.matrix.noise") - mat0;

    Digest d;
    bool converged = true;
    for (const JobResult& r : res) {
      converged = converged && r.converged;
      d.number(r.gain_db);
      d.number(r.extra);
    }
    const auto A = MixerMode::kActive, P = MixerMode::kPassive;
    double worst_crossval = 0.0;
    for (const MixerMode m : {A, P})
      worst_crossval = std::max(
          worst_crossval, std::abs(gain_of(jobs, res, JobType::kPac, m, kCrossvalLoHz) -
                                   gain_of(jobs, res, JobType::kTran, m, kCrossvalIfHz)));
    const bool ordered =
        gain_of(jobs, res, JobType::kPac, A, kCrossvalLoHz) >
            gain_of(jobs, res, JobType::kPac, P, kCrossvalLoHz) &&
        gain_of(jobs, res, JobType::kTran, A, kCrossvalIfHz) >
            gain_of(jobs, res, JobType::kTran, P, kCrossvalIfHz) &&
        gain_of(jobs, res, JobType::kPnoise, A, kCrossvalIfHz) >
            gain_of(jobs, res, JobType::kPnoise, P, kCrossvalIfHz) &&
        gain_of(jobs, res, JobType::kPnoise, A, kCrossvalIfHz, true) <
            gain_of(jobs, res, JobType::kPnoise, P, kCrossvalIfHz, true);
    char why[256];
    std::snprintf(why, sizeof why,
                  "mixer_paper: PSS converged %d, PAC-vs-transient %.3f dB (tol %.2f), "
                  "active > passive %d, digest %s (pinned %s)",
                  converged, worst_crossval, kCrossvalTolDb, ordered, d.hex().c_str(),
                  kValueDigest);
    ctx.report.check(converged && worst_crossval <= kCrossvalTolDb && ordered &&
                         d.hex() == kValueDigest,
                     why);
  };
  w.counters = {{"spice.lu.refactor", "spice.lu.refactor"},
                {"spice.lu.analyze", "spice.lu.analyze"},
                {"spice.lu.factorizations", "spice.lu.factorizations"},
                {"spice.dev.evaluated", "spice.dev.evaluated"},
                {"spice.newton.iterations", "spice.newton.iterations"}};
  w.layers = [&](double, double single_s) {
    // pss_ms / matrix_timer_ms hold the traced single-lane pass's deltas.
    Report& r = ctx.report;
    r.set("spice.pss_ms", pss_ms);
    r.set("lptv.matrix_timer_ms", matrix_timer_ms);
    r.set("lptv.matrix_ms", r.get("core.pac_ms") + r.get("core.pnoise_ms") - pss_ms);
    r.set("lptv.solve_share", matrix_timer_ms * 1e-3 / single_s);
    const double fact = r.get("spice.lu.factorizations");
    r.set("spice.lu.reuse_ratio", fact > 0 ? r.get("spice.lu.refactor") / fact : 0.0);

    MixerConfig cfg;
    auto mixer = core::build_transistor_mixer(cfg);
    const spice::Solution op = spice::dc_operating_point(mixer->circuit);
    const StageSplit st = split_stages(mixer->circuit, op, 50, 50);
    r.set("mathx.lu.analyze_ms", st.analyze_ms);
    r.set("mathx.lu.fill", st.fill);
    const double share = r.get("spice.lu.analyze") * st.analyze_ms * 1e-3 / single_s;
    r.set("mathx.lu.analyze_share", share);
    std::printf("LU analyze: %.0f per pass x %.4f ms = %.3f%% of the %.3f s single-lane pass; "
                "%.0f refactors per pass\n",
                r.get("spice.lu.analyze"), st.analyze_ms, 100.0 * share, single_s,
                r.get("spice.lu.refactor"));
  };
  run_in_process(ctx, w);
}

}  // namespace perfbench
