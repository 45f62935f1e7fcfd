#include "harness/loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "harness/stats.hpp"
#include "mathx/rng.hpp"

namespace perfbench {

namespace {

using rfmix::mathx::Rng;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// A resistor ladder with shunt capacitors: small enough that executing it
// costs microseconds, so the request path is what the workload measures.
std::string ladder_netlist(Rng& rng) {
  char line[128];
  std::snprintf(line, sizeof line, "V1 in 0 DC %.17g AC 1\\n", 0.5 + rng.uniform());
  std::string deck = line;
  char prev[8] = "in";
  for (int i = 1; i <= 6; ++i) {
    const double r = 100.0 + 900.0 * rng.uniform();
    const double c = 1e-12 * (1.0 + 9.0 * rng.uniform());
    std::snprintf(line, sizeof line, "R%d %s n%d %.17g\\nC%d n%d 0 %.17g\\n", i, prev, i, r, i,
                  i, c);
    deck += line;
    std::snprintf(prev, sizeof prev, "n%d", i);
  }
  std::snprintf(line, sizeof line, "RL n6 0 %.17g\\n", 1e3 + 9e3 * rng.uniform());
  return deck + line;
}

std::string make_body(Kind kind, Rng& rng) {
  switch (kind) {
    case Kind::kOp:
      return R"("kind":"op","params":{"netlist":")" + ladder_netlist(rng) + R"("})";
    case Kind::kAc:
      return R"("kind":"ac","params":{"netlist":")" + ladder_netlist(rng) +
             R"(","ac":{"f_start_hz":1000,"f_stop_hz":1e9,"points":11,"log_scale":true,)"
             R"("probe":"n6"}})";
    case Kind::kMetric: {
      const char* mode = rng.uniform() < 0.5 ? "active" : "passive";
      return R"("kind":"mixer_metric","params":{"metric":"gain_db","config":{"mode":")" +
             std::string(mode) + R"("},"f_if_hz":)" + num(1e6 + 19e6 * rng.uniform()) + "}";
    }
    case Kind::kGen:
      return R"("kind":"gen","params":{"template":"rx_array","elements":2,"paths":4,)"
             R"("sections":2,"mismatch":0.05,"seed":)" +
             std::to_string(rng.next_u64() >> 33) + R"(,"analysis":"op"})";
  }
  return {};
}

Kind draw_kind(Rng& rng) {
  // The v2 mix: mostly small netlist analyses and metric queries, plus a
  // small share of generated-array requests.
  const double u = rng.uniform();
  if (u < 0.35) return Kind::kOp;
  if (u < 0.60) return Kind::kAc;
  if (u < 0.90) return Kind::kMetric;
  return Kind::kGen;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads whatever is available on `fd` into `buf` and hands each complete
// line to `on_line`. Returns false on EOF or error.
template <typename OnLine>
bool drain(int fd, std::string& buf, OnLine&& on_line) {
  char chunk[65536];
  const ssize_t n = ::read(fd, chunk, sizeof chunk);
  if (n < 0) return errno == EINTR || errno == EAGAIN;
  if (n == 0) return false;
  buf.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t nl; (nl = buf.find('\n', start)) != std::string::npos; start = nl + 1)
    on_line(buf.substr(start, nl - start));
  buf.erase(0, start);
  return true;
}

// Response ids are numeric and come right after the version field.
bool parse_id(const std::string& line, std::uint64_t* id) {
  const std::size_t at = line.find("\"id\":");
  if (at == std::string::npos) return false;
  char* end = nullptr;
  const char* begin = line.c_str() + at + 5;
  const unsigned long long v = std::strtoull(begin, &end, 10);
  if (end == begin) return false;
  *id = v;
  return true;
}

// Shared receive loop: matches responses to requests by id until every
// request is answered or `deadline_s` (step clock) passes.
template <typename OnDone>
void receive(const std::vector<int>& fds, std::uint64_t id_base, RunTimes& out,
             Clock::time_point t0, double deadline_s, OnDone&& on_done) {
  const std::size_t total = out.done_s.size();
  std::size_t received = 0;
  std::vector<std::string> bufs(fds.size());
  std::vector<pollfd> pfds(fds.size());
  std::vector<bool> open(fds.size(), true);
  while (received < total && seconds_since(t0) < deadline_s) {
    for (std::size_t c = 0; c < fds.size(); ++c)
      pfds[c] = pollfd{open[c] ? fds[c] : -1, POLLIN, 0};
    if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      open[c] = drain(fds[c], bufs[c], [&](std::string line) {
        std::uint64_t id = 0;
        if (!parse_id(line, &id) || id < id_base || id - id_base >= total) return;
        const std::size_t i = static_cast<std::size_t>(id - id_base);
        if (out.done_s[i] >= 0.0) return;
        out.done_s[i] = seconds_since(t0);
        out.responses[i] = std::move(line);
        ++received;
        on_done(c, i);
      });
    }
  }
}

void finish(RunTimes& out) {
  double first = std::numeric_limits<double>::infinity(), last = 0.0;
  for (const double s : out.sent_s)
    if (s >= 0.0) first = std::min(first, s);
  for (const double d : out.done_s) last = std::max(last, d);
  out.elapsed_s = std::isfinite(first) ? last - first : 0.0;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kOp: return "op";
    case Kind::kAc: return "ac";
    case Kind::kMetric: return "mixer_metric";
    case Kind::kGen: return "gen";
  }
  return "?";
}

std::vector<Planned> make_stream(const StreamSpec& spec) {
  Rng rng = Rng(spec.seed).fork(spec.stream);
  std::vector<Planned> out;
  out.reserve(spec.count);
  std::vector<std::size_t> distinct;  // indices into `out` of first occurrences
  double due = 0.0;
  for (std::size_t i = 0; i < spec.count; ++i) {
    Planned p;
    if (spec.rate_rps > 0.0) {
      due += -std::log(1.0 - rng.uniform()) / spec.rate_rps;
      p.due_s = due;
    }
    const double u = rng.uniform();
    if (!distinct.empty() && u < spec.repeat_frac) {
      const std::size_t window = std::min(spec.repeat_window, distinct.size());
      const auto back = static_cast<std::size_t>(rng.uniform() * static_cast<double>(window));
      const Planned& orig = out[distinct[distinct.size() - 1 - back]];
      p.kind = orig.kind;
      p.body = orig.body;
      p.key_index = orig.key_index;
      p.repeat = true;
    } else {
      p.kind = draw_kind(rng);
      p.body = make_body(p.kind, rng);
      p.key_index = distinct.size();
      distinct.push_back(i);
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::string request_line(const Planned& p, std::uint64_t id) {
  return R"({"v":2,"id":)" + std::to_string(id) + "," + p.body + "}\n";
}

std::size_t backlog_at(const std::vector<double>& due_s, const std::vector<double>& done_s,
                       double t) {
  std::size_t due = 0, done = 0;
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    if (due_s[i] > t) continue;
    ++due;
    if (done_s[i] >= 0.0 && done_s[i] <= t) ++done;
  }
  return due - done;
}

StepVerdict judge_step(const std::vector<double>& due_s, const std::vector<double>& done_s,
                       double rate_rps, double limit_ms) {
  StepVerdict v;
  if (due_s.empty()) return v;
  const double last_due = *std::max_element(due_s.begin(), due_s.end());
  v.backlog_mid = backlog_at(due_s, done_s, last_due / 2.0);
  v.backlog_end = backlog_at(due_s, done_s, last_due);
  const double allowed = std::max(4.0, rate_rps * limit_ms * 1e-3);
  v.growing = static_cast<double>(v.backlog_end) > allowed &&
              static_cast<double>(v.backlog_end) > 1.5 * static_cast<double>(v.backlog_mid);
  return v;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

RunTimes run_open_loop(const std::vector<int>& fds, const std::vector<Planned>& plan,
                       std::uint64_t id_base, double grace_s) {
  RunTimes out;
  out.sent_s.assign(plan.size(), -1.0);
  out.done_s.assign(plan.size(), -1.0);
  out.responses.resize(plan.size());
  if (plan.empty() || fds.empty()) return out;
  std::vector<std::string> lines(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) lines[i] = request_line(plan[i], id_base + i);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const double deadline = plan.back().due_s + grace_s;
  std::thread sender([&] {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(plan[i].due_s)));
      if (!write_all(fds[i % fds.size()], lines[i])) return;
      out.sent_s[i] = seconds_since(t0);
    }
  });
  receive(fds, id_base, out, t0, deadline, [](std::size_t, std::size_t) {});
  sender.join();
  finish(out);
  return out;
}

RunTimes run_closed_loop(const std::vector<int>& fds, const std::vector<Planned>& plan,
                         std::uint64_t id_base, double timeout_s, int depth) {
  RunTimes out;
  out.sent_s.assign(plan.size(), -1.0);
  out.done_s.assign(plan.size(), -1.0);
  out.responses.resize(plan.size());
  if (plan.empty() || fds.empty()) return out;
  const Clock::time_point t0 = Clock::now();
  std::size_t next = 0;
  const auto send_next = [&](std::size_t conn) {
    if (next >= plan.size()) return;
    const std::size_t i = next++;
    out.sent_s[i] = seconds_since(t0);
    write_all(fds[conn], request_line(plan[i], id_base + i));
  };
  for (int d = 0; d < depth; ++d)
    for (std::size_t c = 0; c < fds.size(); ++c) send_next(c);
  receive(fds, id_base, out, t0, timeout_s,
          [&](std::size_t conn, std::size_t) { send_next(conn); });
  finish(out);
  return out;
}

std::string response_payload(const std::string& line) {
  if (line.rfind(R"({"v":2,)", 0) != 0 || line.find(R"("ok":true)") == std::string::npos)
    return {};
  const std::size_t at = line.find(R"("result":)");
  if (at == std::string::npos || line.empty() || line.back() != '}') return {};
  const std::size_t begin = at + 9;
  return line.substr(begin, line.size() - 1 - begin);
}

std::string response_key(const std::string& line) {
  const std::size_t at = line.find(R"("key":")");
  if (at == std::string::npos) return {};
  const std::size_t end = line.find('"', at + 7);
  return end == std::string::npos ? std::string{} : line.substr(at + 7, end - at - 7);
}

}  // namespace perfbench
