// Seeded request streams and the client side of the svc_mix workload.
//
// A stream is a list of planned v2 requests with due times. Everything in
// it (request kinds, parameter values, which requests repeat an earlier
// key, and the Poisson arrival times) is drawn from (seed, stream id), so
// the same seed always produces the same request bytes and due times. The
// program under test only ever sees the generated lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind { kOp, kAc, kMetric, kGen };
const char* kind_name(Kind k);

struct Planned {
  double due_s = 0.0;      // offset from the start of the step
  Kind kind = Kind::kOp;
  bool repeat = false;     // planned as a repeat of a recent key
  std::size_t key_index = 0;  // index of the distinct request it carries
  std::string body;        // "kind":...,"params":{...} (no envelope)
};

struct StreamSpec {
  std::uint64_t seed = 1;
  std::uint64_t stream = 0;   // distinct streams never share a key
  std::size_t count = 0;
  double rate_rps = 0.0;      // Poisson arrivals; <= 0 means all due at 0
  double repeat_frac = 0.5;   // share planned as repeats of a recent key
  std::size_t repeat_window = 32;  // how far back a repeat may reach
};

std::vector<Planned> make_stream(const StreamSpec& spec);

/// One request line, newline-terminated, with the numeric id `id`.
std::string request_line(const Planned& p, std::uint64_t id);

// ---------------------------------------------------------------------------
// Judging one open-loop step
// ---------------------------------------------------------------------------

/// Requests that never completed (or failed) carry a negative done time.
struct StepVerdict {
  std::size_t backlog_mid = 0;  // outstanding at half the schedule
  std::size_t backlog_end = 0;  // outstanding when the last request was due
  bool growing = false;         // backlog still growing at the end
};

/// Outstanding requests at time t: due by t but not completed by t.
std::size_t backlog_at(const std::vector<double>& due_s, const std::vector<double>& done_s,
                       double t);

/// The backlog is growing when the outstanding count at the last due time
/// exceeds what the latency limit allows at this rate (rate x limit, at
/// least 4) and has grown by half since the middle of the schedule.
StepVerdict judge_step(const std::vector<double>& due_s, const std::vector<double>& done_s,
                       double rate_rps, double limit_ms);

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Connect to a Unix socket; returns the fd or -1.
int connect_unix(const std::string& path);

struct RunTimes {
  std::vector<double> sent_s;  // when each request was written (step clock)
  std::vector<double> done_s;  // when its response arrived; -1 = never
  std::vector<std::string> responses;
  double elapsed_s = 0.0;      // first send to last response
};

/// Open loop: one sender thread writes request i at its due time on
/// connection i % fds.size() (late requests go out immediately, and the
/// lateness is reported as generator lag); one receiver thread matches
/// responses by id. Ids are id_base + i.
RunTimes run_open_loop(const std::vector<int>& fds, const std::vector<Planned>& plan,
                       std::uint64_t id_base, double grace_s);

/// Closed loop: each connection keeps `depth` requests outstanding.
RunTimes run_closed_loop(const std::vector<int>& fds, const std::vector<Planned>& plan,
                         std::uint64_t id_base, double timeout_s, int depth = 1);

/// The text after "result": in a success response, without the closing
/// brace; empty when the response is not a v2 success.
std::string response_payload(const std::string& line);

/// The "key" field of a success response; empty when absent.
std::string response_key(const std::string& line);

}  // namespace perfbench
