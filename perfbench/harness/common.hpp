// Shared plumbing of the four workloads: run context, timing helpers, obs
// registry reads, and the in-process pass loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/report.hpp"

namespace perfbench {

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  // measure one set-up (a cold start), then stop
  std::string out_dir = ".";  // where the traced run writes its Chrome trace
  double t_start = 0.0; // now_s() when the harness started
  Report report;
};

double now_s();

/// Wall time of fn(), in seconds.
double time_s(const std::function<void()>& fn);

/// Median wall time of `reps` calls of fn(), in seconds.
double median_time_s(int reps, const std::function<void()>& fn);

std::uint64_t obs_count(const char* name);
double obs_timer_ms(const char* name);

/// Peak RSS of this process in MB (getrusage).
double self_peak_rss_mb();

/// Peak RSS (VmHWM) of a process in MB, 0 if it is gone.
double proc_peak_rss_mb(int pid);

/// Direct children of `pid`, found by scanning /proc.
std::vector<int> child_pids(int pid);

/// One workload that runs fixed work in-process, pass after pass.
struct InProcessWorkload {
  std::function<void()> pass;     // one pass of fixed work, with its checks
  bool fans_out = false;          // spreads its work over the runtime pool
  /// Extra per-layer measurements for the traced run (stage splits etc.),
  /// given the untraced wall time of one pass at the default lane count.
  std::function<void(double pass_s, double single_lane_pass_s)> layers;
  /// Counters read as per-pass deltas of one untraced pass.
  std::vector<std::pair<const char*, const char*>> counters;  // metric, obs name
};

/// Always a warm-up pass first (one setup_s sample); with ctx.setup_only
/// nothing else. Untraced: passes for ctx.seconds, the end-to-end metrics,
/// then one untimed single-lane pass if the workload does not fan out.
/// Traced: untraced reference passes, one traced pass, the per-layer table
/// and the workload's extra measurements.
void run_in_process(Context& ctx, InProcessWorkload& w);

/// Print the per-layer self-time table of the recorded spans, write the
/// Chrome trace, and report the tracing overhead against `untraced_s`.
void finish_trace(Context& ctx, double untraced_s);

void run_array_dc(Context& ctx);
void run_mixer_paper(Context& ctx);
void run_npath_sweep(Context& ctx);
void run_svc_mix(Context& ctx);

}  // namespace perfbench
