// svc_mix: seeded open-loop traffic into a spawned rfmix-router (default
// worker count) carrying a v2 mix of op, ac and mixer_metric requests plus
// a small share of gen. About half of the requests repeat a recent key and
// so hit the router cache; the rest are cold and go to a worker.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <limits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "harness/common.hpp"
#include "harness/loadgen.hpp"
#include "harness/stats.hpp"
#include "harness/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "svc/cache.hpp"
#include "svc/server.hpp"

namespace perfbench {

using namespace rfmix;

namespace {

// Offered rates, pinned from the capacity measured at the seed (see
// README.md): heavy stays under half of the capacity even when the shared
// host runs at half speed, light is well inside it.
constexpr double kLightRps = 500.0;
constexpr double kHeavyRps = 800.0;
// Latency limit on p99 from due time: above the few-ms scheduling stalls
// of a shared host, far below what a growing backlog produces.
constexpr double kLatencyLimitMs = 50.0;
// A run whose generator ran later than this (p99) is invalid, not fast.
constexpr double kGenLagLimitMs = kLatencyLimitMs;
// Closed-loop batches: cold (wall_s) and of the workload's mix (max_rps),
// with kDepth requests in flight per connection; kBatchesPerRound of each
// per router the untraced run spawns. svc.conn_scaling times cold batches
// of kScalingBatch.
constexpr std::size_t kBatch = 500;
constexpr std::size_t kScalingBatch = 1000;
constexpr std::size_t kMixBatch = 1000;
constexpr int kDepth = 32;
constexpr int kBatchesPerRound = 3;

// Stream ids: every phase draws fresh keys so "cold" stays cold.
enum : std::uint64_t {
  kStreamWarm = 1,
  kStreamLight = 2,
  kStreamHeavy = 3,
  kStreamUnloadedHit = 4,
  kStreamUnloadedMiss = 5,
  kStreamBatch = 1000,  // + batch
};

using Clock = std::chrono::steady_clock;

class Router {
 public:
  Router() = default;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;
  ~Router() { stop(); }

  /// Spawn rfmix-router on ./r.sock and wait until every worker is alive.
  void start() {
    ::unlink("r.sock");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execl(PERFBENCH_ROUTER_BIN, PERFBENCH_ROUTER_BIN, "--socket", "r.sock", "--worker-dir", "w",
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      const int fd = connect_unix("r.sock");
      if (fd >= 0) {
        const std::string stats = control(fd, "stats");
        ::close(fd);
        const std::size_t w = stats.find("\"workers\":");
        const std::size_t a = stats.find("\"alive\":");
        if (w != std::string::npos && a != std::string::npos &&
            std::atoi(stats.c_str() + w + 10) == std::atoi(stats.c_str() + a + 8) &&
            std::atoi(stats.c_str() + a + 8) > 0)
          return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    throw std::runtime_error("rfmix-router did not come up");
  }

  /// SIGTERM (graceful drain), then SIGKILL after 5 s; reaps the router.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (const int child : child_pids(pid_)) ::kill(child, SIGKILL);
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  int pid() const { return pid_; }

  /// One control request (ping/stats) on `fd`; returns the response line.
  static std::string control(int fd, const char* kind) {
    const std::string line = std::string(R"({"v":2,"id":0,"kind":")") + kind + "\"}\n";
    if (::write(fd, line.data(), line.size()) != static_cast<ssize_t>(line.size())) return {};
    std::string buf;
    char chunk[4096];
    while (buf.find('\n') == std::string::npos) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 2000) <= 0) return {};
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) return {};
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    return buf.substr(0, buf.find('\n'));
  }

 private:
  pid_t pid_ = -1;
};

class Connections {
 public:
  explicit Connections(int n) {
    for (int i = 0; i < n; ++i) {
      const int fd = connect_unix("r.sock");
      if (fd < 0) throw std::runtime_error("cannot connect to r.sock");
      fds_.push_back(fd);
    }
  }
  ~Connections() {
    for (const int fd : fds_) ::close(fd);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;
  const std::vector<int>& fds() const { return fds_; }

 private:
  std::vector<int> fds_;
};

std::uint64_t stat_field(const std::string& stats, const char* field) {
  const std::string key = std::string("\"") + field + "\":";
  const std::size_t at = stats.find(key);
  return at == std::string::npos ? 0 : std::strtoull(stats.c_str() + at + key.size(), nullptr, 10);
}

// Every request sent and the response it got, for the correctness pass.
struct Exchange {
  const Planned* plan;
  const std::string* response;
};

struct Phase {
  std::vector<Planned> plan;
  RunTimes times;
};

class SvcRun {
 public:
  SvcRun(Context& ctx, int conns) : ctx_(ctx), conns_(conns) {}

  Phase& open_step(std::uint64_t stream, double rate, std::size_t count) {
    Phase& ph = add_phase(stream, rate, count, 0.5);
    ph.times = run_open_loop(live_->fds(), ph.plan, next_id(count), 5.0);
    return ph;
  }

  Phase& closed(std::uint64_t stream, std::size_t count, double repeat_frac, int conns,
                int depth = 1) {
    Phase& ph = add_phase(stream, 0.0, count, repeat_frac);
    Connections c(conns);
    ph.times = run_closed_loop(c.fds(), ph.plan, next_id(count), 60.0, depth);
    return ph;
  }

  void start_router() {
    router_ = std::make_unique<Router>();
    router_->start();
    live_ = std::make_unique<Connections>(conns_);
    // Warm-up: each worker's pool, caches and first-touch allocations.
    closed(kStreamWarm, 1024, 0.0, conns_, kDepth);
  }

  void stop_router() {
    live_.reset();
    router_.reset();
  }

  Router& router() { return *router_; }
  int conns() const { return conns_; }
  const std::vector<std::unique_ptr<Phase>>& phases() const { return phases_; }

 private:
  Phase& add_phase(std::uint64_t stream, double rate, std::size_t count, double repeat_frac) {
    StreamSpec spec;
    spec.seed = ctx_.seed;
    spec.stream = stream;
    spec.count = count;
    spec.rate_rps = rate;
    spec.repeat_frac = repeat_frac;
    phases_.emplace_back(std::make_unique<Phase>());
    Phase& ph = *phases_.back();
    ph.plan = make_stream(spec);
    return ph;
  }

  std::uint64_t next_id(std::size_t count) {
    const std::uint64_t base = id_;
    id_ += count;
    return base;
  }

  Context& ctx_;
  int conns_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Connections> live_;
  std::vector<std::unique_ptr<Phase>> phases_;
  std::uint64_t id_ = 1;
};

// Requests in a fixed-rate step of `seconds`; at least 1200, so its p99
// has ten samples beyond it.
std::size_t step_count(double rate, double seconds) {
  return static_cast<std::size_t>(std::max(1200.0, rate * seconds));
}

struct Latencies {
  std::vector<double> all, hit, miss, lag;
};

Latencies latencies(const Phase& ph) {
  Latencies l;
  for (std::size_t i = 0; i < ph.plan.size(); ++i) {
    if (ph.times.sent_s[i] >= 0.0) l.lag.push_back((ph.times.sent_s[i] - ph.plan[i].due_s) * 1e3);
    if (ph.times.done_s[i] < 0.0) continue;
    const double ms = (ph.times.done_s[i] - ph.plan[i].due_s) * 1e3;
    l.all.push_back(ms);
    (ph.plan[i].repeat ? l.hit : l.miss).push_back(ms);
  }
  return l;
}

std::vector<double> due_times(const Phase& ph) {
  std::vector<double> d;
  for (const Planned& p : ph.plan) d.push_back(p.due_s);
  return d;
}

// Open-loop validity: the generator kept to its schedule and the backlog
// was not still growing when the step ended.
void check_step(Context& ctx, const char* name, const Phase& ph, double rate) {
  const Latencies l = latencies(ph);
  const StepVerdict v = judge_step(due_times(ph), ph.times.done_s, rate, kLatencyLimitMs);
  const double lag = quantile(l.lag, 0.99);
  std::printf("%s step @ %.0f req/s: latency %s; hits %s; misses %s; generator lag p99 %.3f ms; "
              "backlog %zu -> %zu\n",
              name, rate, describe(summarize(l.all), "ms").c_str(),
              describe(summarize(l.hit), "ms").c_str(), describe(summarize(l.miss), "ms").c_str(),
              lag, v.backlog_mid, v.backlog_end);
  char why[200];
  std::snprintf(why, sizeof why,
                "svc_mix: %s step valid (generator lag p99 %.3f ms, limit %.1f; backlog "
                "growing %d)",
                name, lag, kGenLagLimitMs, v.growing);
  ctx.report.check(lag <= kGenLagLimitMs && !v.growing, why);
}

// Every response must be ok, carry the key the request hashes to
// in-process, and carry the payload an in-process execute_request of the
// same request produces, byte for byte.
void verify(Context& ctx, const SvcRun& run) {
  std::map<std::string, std::size_t> index;  // body -> distinct slot
  std::vector<const Planned*> distinct;
  std::vector<Exchange> all;
  for (const auto& ph : run.phases())
    for (std::size_t i = 0; i < ph->plan.size(); ++i) {
      all.push_back({&ph->plan[i], &ph->times.responses[i]});
      if (index.emplace(ph->plan[i].body, distinct.size()).second)
        distinct.push_back(&ph->plan[i]);
    }
  std::vector<std::string> key(distinct.size()), payload(distinct.size());
  std::vector<char> parsed(distinct.size(), 0);
  runtime::parallel_for(0, distinct.size(), [&](std::size_t i) {
    svc::ParsedRequest req;
    const std::string line = request_line(*distinct[i], 1);
    if (svc::ServerSession::parse_line(line.substr(0, line.size() - 1), &req)) return;
    key[i] = svc::request_key(req.request).hex();
    payload[i] = svc::execute_request(req.request);
    parsed[i] = 1;
  });
  std::size_t bad = 0;
  for (const Exchange& x : all) {
    const std::size_t i = index.at(x.plan->body);
    const bool ok = parsed[i] && !x.response->empty() && response_key(*x.response) == key[i] &&
                    response_payload(*x.response) == payload[i];
    if (!ok && bad++ < 3)
      std::printf("bad response to %s: %.200s\n", kind_name(x.plan->kind), x.response->c_str());
    ctx.report.check(ok, "svc_mix: response ok, key and payload match in-process execution");
  }
  std::printf("verified %zu responses (%zu distinct requests) against in-process execution: %zu "
              "bad\n",
              all.size(), distinct.size(), bad);
}

double cluster_peak_rss_mb(int router_pid) {
  double mb = proc_peak_rss_mb(router_pid);
  for (const int child : child_pids(router_pid)) mb += proc_peak_rss_mb(child);
  return mb;
}

void check_stats(Context& ctx, const std::string& stats) {
  const std::uint64_t replays = stat_field(stats, "replays");
  const std::uint64_t unavailable = stat_field(stats, "unavailable");
  const std::uint64_t requests = stat_field(stats, "requests");
  const std::uint64_t hits = stat_field(stats, "cache_hits");
  ctx.report.set("svc.replays", static_cast<double>(replays));
  ctx.report.set("svc.unavailable", static_cast<double>(unavailable));
  ctx.report.set("svc.router.hit_ratio",
                 requests ? static_cast<double>(hits) / static_cast<double>(requests) : 0.0);
  std::printf("router stats: %s\n", stats.c_str());
  ctx.report.check(replays == 0 && unavailable == 0 && stat_field(stats, "alive") > 0,
                   "svc_mix: router stats show replays 0, unavailable 0");
}

// In-process replay of the heavy stream through the request path's public
// calls: parse, key, cache probe, serialize, and execute per kind.
struct Replay {
  double parse_us = 0, key_us = 0, probe_us = 0, serialize_us = 0;
  std::map<std::string, double> exec_us;
};

Replay replay(const std::vector<Planned>& plan, std::uint64_t id_base) {
  std::vector<double> parse, key, probe, ser;
  std::map<std::string, std::vector<double>> exec;
  svc::ResultCache cache(1u << 16);
  const auto us = [](Clock::time_point a) {
    return std::chrono::duration<double, std::micro>(Clock::now() - a).count();
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::uint64_t id = id_base + i;
    Span request_span("svc.request", id);
    std::string line = request_line(plan[i], id);
    line.pop_back();
    svc::ParsedRequest req;
    Clock::time_point t = Clock::now();
    {
      Span s("svc.parse", id);
      if (svc::ServerSession::parse_line(line, &req)) throw std::runtime_error("replay parse");
    }
    parse.push_back(us(t));
    t = Clock::now();
    svc::Hash128 k;
    {
      Span s("svc.key", id);
      k = svc::request_key(req.request);
    }
    key.push_back(us(t));
    t = Clock::now();
    std::optional<std::string> hit;
    {
      Span s("svc.probe", id);
      hit = cache.get(k);
    }
    if (hit) probe.push_back(us(t));
    if (!hit) {
      t = Clock::now();
      {
        Span s("svc.exec", id);
        hit = svc::execute_request(req.request);
      }
      exec[kind_name(plan[i].kind)].push_back(us(t));
      cache.put(k, *hit);
    }
    t = Clock::now();
    {
      Span s("svc.serialize", id);
      svc::make_analysis_response(req, true, false, k, *hit);
    }
    ser.push_back(us(t));
  }
  Replay r;
  r.parse_us = median(parse);
  r.key_us = median(key);
  r.probe_us = median(probe);
  r.serialize_us = median(ser);
  for (auto& [kind, v] : exec) r.exec_us[kind] = median(v);
  return r;
}

void untraced(Context& ctx) {
  SvcRun run(ctx, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  if (ctx.setup_only) {
    ctx.report.sample("setup_s", time_s([&] { run.start_router(); }));
    run.stop_router();
    verify(ctx, run);
    return;
  }

  // The measured time is a sequence of short rounds, so a slow stretch of
  // the host moves few samples of each metric. A round spawns a fresh
  // router and its workers and warms them up (a setup_s sample), then runs
  // pairs of closed-loop batches with kDepth requests in flight on every
  // connection, fresh keys each time: a cold batch (no repeats; wall_s is
  // the median of its wall time) and a batch of the workload's mix (max_rps
  // is the median of its throughput). A closed loop at fixed concurrency
  // cannot build a backlog, and throughput at saturation moves less with
  // the host's momentary speed than latency near saturation does.
  const double t0 = now_s();
  std::vector<double> setups, walls, rps, p99, rss;
  for (std::uint64_t b = 0; walls.size() < 5 || now_s() - t0 < 0.8 * ctx.seconds;) {
    setups.push_back(time_s([&] { run.start_router(); }));
    ctx.report.sample("setup_s", setups.back());
    for (int k = 0; k < kBatchesPerRound; ++k, ++b) {
      walls.push_back(
          run.closed(kStreamBatch + 2 * b, kBatch, 0.0, run.conns(), kDepth).times.elapsed_s);
      const Phase& mix =
          run.closed(kStreamBatch + 2 * b + 1, kMixBatch, 0.5, run.conns(), kDepth);
      std::vector<double> lat;
      for (std::size_t i = 0; i < mix.plan.size(); ++i)
        lat.push_back(mix.times.done_s[i] < 0
                          ? std::numeric_limits<double>::infinity()
                          : (mix.times.done_s[i] - mix.times.sent_s[i]) * 1e3);
      p99.push_back(quantile(lat, 0.99));
      rps.push_back(static_cast<double>(kMixBatch) / mix.times.elapsed_s);
    }
    {
      Connections c(1);
      check_stats(ctx, Router::control(c.fds()[0], "stats"));
    }
    rss.push_back(cluster_peak_rss_mb(run.router().pid()));
    run.stop_router();
  }
  std::printf("%zu rounds; setup (spawn router + workers, warm up): %s\n", setups.size(),
              describe(summarize(setups), "s").c_str());
  std::printf("cold batch of %zu, %d in flight: %s\n", kBatch, kDepth * run.conns(),
              describe(summarize(walls), "s").c_str());
  std::printf("mixed batch of %zu, %d in flight: throughput %s; p99 %s\n", kMixBatch,
              kDepth * run.conns(), describe(summarize(rps), "req/s").c_str(),
              describe(summarize(p99), "ms").c_str());
  ctx.report.set("wall_s", median(walls));
  ctx.report.set("max_rps", median(rps));
  ctx.report.set("peak_rss_mb", median(rss));
  verify(ctx, run);
}

void traced(Context& ctx) {
  SvcRun run(ctx, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  run.start_router();

  // Unloaded single-connection latencies: hits on warmed keys, then misses.
  run.closed(kStreamUnloadedHit, 200, 0.0, 1);
  const std::vector<double> hit1 = [&] {
    const Phase& ph = run.closed(kStreamUnloadedHit, 200, 0.0, 1);  // same keys: all hits
    std::vector<double> v;
    for (std::size_t i = 0; i < ph.plan.size(); ++i)
      v.push_back((ph.times.done_s[i] - ph.times.sent_s[i]) * 1e6);
    return v;
  }();
  const std::vector<double> miss1 = [&] {
    const Phase& ph = run.closed(kStreamUnloadedMiss, 200, 0.0, 1);
    std::vector<double> v;
    for (std::size_t i = 0; i < ph.plan.size(); ++i)
      v.push_back((ph.times.done_s[i] - ph.times.sent_s[i]) * 1e3);
    return v;
  }();
  std::printf("unloaded, one connection: hit %s; miss %s\n",
              describe(summarize(hit1), "us").c_str(), describe(summarize(miss1), "ms").c_str());

  // Closed-loop cold throughput on 1 vs all connections.
  const double one = run.closed(kStreamBatch, kScalingBatch, 0.0, 1).times.elapsed_s;
  const double many =
      run.closed(kStreamBatch + 1, kScalingBatch, 0.0, run.conns()).times.elapsed_s;
  ctx.report.set("svc.conn_scaling", one / many);
  std::printf("closed-loop cold batch of %zu: %.3f s on 1 connection, %.3f s on %d (%.2fx)\n",
              kScalingBatch, one, many, run.conns(), one / many);

  const Phase& light = run.open_step(kStreamLight, kLightRps, step_count(kLightRps, 1.0));
  check_step(ctx, "light", light, kLightRps);
  ctx.report.set("svc.light.p99_ms", quantile(latencies(light).all, 0.99));
  const Phase& heavy = run.open_step(kStreamHeavy, kHeavyRps, step_count(kHeavyRps, 2.0));
  check_step(ctx, "heavy", heavy, kHeavyRps);
  const Latencies l = latencies(heavy);
  ctx.report.set("svc.heavy.p50_ms", median(l.all));
  ctx.report.set("svc.heavy.p99_ms", quantile(l.all, 0.99));
  ctx.report.set("svc.hit.p50_ms", median(l.hit));
  ctx.report.set("svc.miss.p50_ms", median(l.miss));
  ctx.report.set("svc.wait_ms", median(l.miss) - median(miss1));
  ctx.report.set("bench.gen_lag_p99_ms", quantile(l.lag, 0.99));
  {
    Connections c(1);
    check_stats(ctx, Router::control(c.fds()[0], "stats"));
  }
  run.stop_router();
  verify(ctx, run);

  // The request path's layers, replayed in-process on the heavy stream:
  // once untraced (the reference), once traced.
  const double untraced_s = time_s([&] { replay(heavy.plan, 1); });
  Tracer::get().set_enabled(true);
  Replay r;
  {
    Span root("bench.pass");
    r = replay(heavy.plan, 1);
  }
  Tracer::get().set_enabled(false);
  finish_trace(ctx, untraced_s);
  ctx.report.set("svc.parse_us", r.parse_us);
  ctx.report.set("svc.key_us", r.key_us);
  ctx.report.set("svc.probe_us", r.probe_us);
  ctx.report.set("svc.serialize_us", r.serialize_us);
  for (const auto& [kind, v] : r.exec_us) ctx.report.set("svc.exec_us." + kind, v);
  const double in_process_hit = r.parse_us + r.key_us + r.probe_us + r.serialize_us;
  ctx.report.set("svc.transport_us", median(hit1) - in_process_hit);
  std::printf("in-process hit path %.2f us (parse %.2f, key %.2f, probe %.2f, serialize %.2f); "
              "transport %.1f us\n",
              in_process_hit, r.parse_us, r.key_us, r.probe_us, r.serialize_us,
              median(hit1) - in_process_hit);
}

}  // namespace

void run_svc_mix(Context& ctx) {
  // The router's sockets live in a private directory under the output
  // directory; relative paths keep them short.
  char cwd[PATH_MAX];
  if (!::getcwd(cwd, sizeof cwd)) throw std::runtime_error("getcwd");
  if (ctx.out_dir.empty() || ctx.out_dir[0] != '/')
    ctx.out_dir = std::string(cwd).append("/").append(ctx.out_dir);
  const std::string dir = ctx.out_dir + "/svc-" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0700);
  if (::chdir(dir.c_str()) != 0) throw std::runtime_error("chdir " + dir);
  try {
    ctx.trace ? traced(ctx) : untraced(ctx);
  } catch (...) {
    ::chdir(cwd);
    throw;
  }
  ::chdir(cwd);
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
