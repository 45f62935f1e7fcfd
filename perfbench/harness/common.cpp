#include "harness/common.hpp"

#include <dirent.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/stats.hpp"
#include "harness/trace.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double time_s(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

double median_time_s(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(time_s(fn));
  return median(t);
}

std::uint64_t obs_count(const char* name) {
  for (const auto& c : rfmix::obs::snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

double obs_timer_ms(const char* name) {
  for (const auto& t : rfmix::obs::snapshot().timers)
    if (t.name == name) return static_cast<double>(t.total_ns) * 1e-6;
  return 0.0;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double proc_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

std::vector<int> child_pids(int pid) {
  std::vector<int> out;
  DIR* dir = ::opendir("/proc");
  if (!dir) return out;
  while (dirent* e = ::readdir(dir)) {
    const int p = std::atoi(e->d_name);
    if (p <= 0) continue;
    std::ifstream in(std::string("/proc/") + e->d_name + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command: state, ppid, ...
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    int ppid = 0;
    rest >> state >> ppid;
    if (ppid == pid) out.push_back(p);
  }
  ::closedir(dir);
  return out;
}

void finish_trace(Context& ctx, double untraced_s) {
  Tracer& tracer = Tracer::get();
  const std::vector<SpanRecord> spans = tracer.spans();
  const auto layers = layer_times(spans);
  const double traced_ms = root_ms(spans);
  std::printf("\nper-layer self time, traced run of %s (%zu spans):\n", ctx.workload.c_str(),
              spans.size());
  std::printf("  %-28s %12s %12s %8s %7s\n", "layer", "self ms", "total ms", "calls", "share");
  double self_sum = 0.0;
  for (const auto& [name, lt] : layers) {
    self_sum += lt.self_ms;
    std::printf("  %-28s %12.3f %12.3f %8zu %6.1f%%\n", name.c_str(), lt.self_ms, lt.total_ms,
                lt.calls, traced_ms > 0 ? 100.0 * lt.self_ms / traced_ms : 0.0);
    ctx.report.set(name + "_ms", lt.total_ms);
  }
  const double overhead = untraced_s > 0 ? traced_ms * 1e-3 / untraced_s - 1.0 : 0.0;
  std::printf("  self times sum to %.3f ms; traced wall %.3f ms; untraced wall %.3f ms "
              "(tracing overhead %+.2f%%)\n",
              self_sum, traced_ms, untraced_s * 1e3, 100.0 * overhead);
  ctx.report.set("bench.trace_overhead", overhead);
  const std::string path = ctx.out_dir + "/trace_" + ctx.workload + ".json";
  std::ofstream(path) << tracer.chrome_json();
  std::printf("  chrome trace: %s\n", path.c_str());
}

namespace {

void traced_pass(InProcessWorkload& w) {
  Tracer::get().set_enabled(true);
  {
    Span root("bench.pass");
    w.pass();
  }
  Tracer::get().set_enabled(false);
}

}  // namespace

void run_in_process(Context& ctx, InProcessWorkload& w) {
  // Set-up: inputs plus one warm-up pass, so lazy initialization (pool
  // threads, first-touch allocations, static tables) is paid here. One
  // sample per process; run.py takes the median over several cold starts.
  w.pass();
  ctx.report.sample("setup_s", now_s() - ctx.t_start);
  if (ctx.setup_only) return;

  if (!ctx.trace) {
    std::vector<double> passes;
    const double t0 = now_s();
    while (passes.size() < 3 || now_s() - t0 < ctx.seconds) passes.push_back(time_s(w.pass));
    const Summary s = summarize(passes);
    std::printf("pass wall: %s\n", describe(s, "s").c_str());
    std::printf("passes (s):");
    for (const double p : passes) std::printf(" %.3f", p);
    std::printf("\n");
    ctx.report.set("wall_s", s.median);
    // Passes per second at the median pass, so one slow pass moves it no
    // more than it moves wall_s.
    ctx.report.set("max_rps", 1.0 / s.median);
    ctx.report.set("peak_rss_mb", self_peak_rss_mb());
    // A workload that does not fan out costs the same on one lane: one
    // untimed single-lane pass, whose checks must give the results of the
    // passes above (the solver's bit-exactness contract).
    if (!w.fans_out) {
      rfmix::runtime::ScopedPool one(1);
      w.pass();
    }
    return;
  }

  // Reference passes at the default lane count, with per-pass counter
  // deltas (the counts repeat exactly from pass to pass).
  constexpr int kReferencePasses = 3;
  std::vector<std::uint64_t> before;
  for (const auto& c : w.counters) before.push_back(obs_count(c.second));
  const double pass_s = median_time_s(kReferencePasses, w.pass);
  for (std::size_t i = 0; i < w.counters.size(); ++i)
    ctx.report.set(w.counters[i].first,
                   static_cast<double>(obs_count(w.counters[i].second) - before[i]) /
                       kReferencePasses);

  // Fanned-out workloads are traced on one lane, so their spans nest on
  // one thread and the self times add up to the traced wall time; the
  // same untraced single-lane pass gives runtime.speedup.
  double single_s = 0.0;
  double traced_ref_s = pass_s;
  if (w.fans_out) {
    rfmix::runtime::ScopedPool one(1);
    single_s = time_s(w.pass);
    traced_ref_s = single_s;
    ctx.report.set("runtime.speedup", single_s / pass_s);
    std::printf("pass wall: %.4f s at %d lanes, %.4f s on 1 lane (speedup %.2fx)\n", pass_s,
                rfmix::runtime::ThreadPool::configured_threads(), single_s, single_s / pass_s);
    traced_pass(w);
  } else {
    std::printf("pass wall: %.4f s\n", pass_s);
    traced_pass(w);
  }
  finish_trace(ctx, traced_ref_s);
  if (w.layers) w.layers(pass_s, single_s);
}

}  // namespace perfbench
