#include "svc/event_loop.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#ifndef _WIN32
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "svc/fault.hpp"
#endif

namespace rfmix::svc {

namespace {

using Clock = ConnLoop::Clock;

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

obs::Counter& prefixed(std::string_view prefix, std::string_view name) {
  return obs::counter(std::string(prefix) + "." + std::string(name));
}

}  // namespace

ConnLoop::Counters::Counters(std::string_view prefix)
    : connections(prefixed(prefix, "connections")),
      disconnects(prefixed(prefix, "disconnects")),
      requests(prefixed(prefix, "requests")),
      responses(prefixed(prefix, "responses")),
      protocol_errors(prefixed(prefix, "protocol_errors")),
      cancelled(prefixed(prefix, "cancelled")),
      backpressure_pauses(prefixed(prefix, "backpressure_pauses")),
      dropped_responses(prefixed(prefix, "dropped_responses")),
      peer_resets(prefixed(prefix, "peer_resets")),
      bytes_in(prefixed(prefix, "bytes_in")),
      bytes_out(prefixed(prefix, "bytes_out")) {}

#ifndef _WIN32

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Strip a trailing CR; true when anything but blanks remains.
bool usable_line(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line.find_first_not_of(" \t") != std::string::npos;
}

/// Fill `addr` for `path`; false when the path does not fit.
bool unix_address(const std::string& path, sockaddr_un* addr) {
  *addr = sockaddr_un{};
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) return false;
  std::strncpy(addr->sun_path, path.c_str(), sizeof(addr->sun_path) - 1);
  return true;
}

/// Drop the consumed prefix of a buffer so a long-lived stream does not
/// grow it without bound.
void compact(std::string& buf, std::size_t& pos) {
  if (pos == buf.size()) {
    buf.clear();
    pos = 0;
  } else if (pos > (1u << 16)) {
    buf.erase(0, pos);
    pos = 0;
  }
}

}  // namespace

ConnLoop::ConnLoop(Policy& policy, const Options& opts, std::string_view counter_prefix)
    : policy_(policy), opts_(opts), counters_(counter_prefix) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    wake_r_ = fds[0];
    wake_w_ = fds[1];
    set_nonblocking(wake_r_);
    set_nonblocking(wake_w_);
  }
}

ConnLoop::~ConnLoop() {
  for (auto& [gen, conn] : conns_) {
    (void)gen;
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listener_ >= 0) ::close(listener_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

bool ConnLoop::listen_unix(const std::string& path, std::string* err) {
  const auto fail = [err](std::string why) {
    if (err != nullptr) *err = std::move(why);
    return false;
  };
  if (wake_r_ < 0 || wake_w_ < 0) return fail("wake pipe unavailable");
  sockaddr_un addr;
  if (!unix_address(path, &addr)) return fail("socket path too long");

  // Only ever remove a *stale* socket: refuse to clobber a regular file (or
  // anything else) at the path, and refuse to steal a socket another live
  // server is still accepting on.
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode))
      return fail("exists and is not a socket; refusing to remove it");
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const bool live =
          ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
      ::close(probe);
      if (live) return fail("another server is listening on it");
    }
    ::unlink(path.c_str());
  }

  listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener_ < 0) return fail(std::string("socket: ") + std::strerror(errno));
  if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener_, opts_.backlog) != 0 || !set_nonblocking(listener_)) {
    const std::string why = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listener_);
    listener_ = -1;
    return fail(why);
  }
  return true;
}

int ConnLoop::connect_unix(const std::string& path, bool* in_progress) {
  sockaddr_un addr;
  if (!unix_address(path, &addr)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (set_nonblocking(fd)) {
    *in_progress = false;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    *in_progress = true;
    if (errno == EINPROGRESS) return fd;
  }
  ::close(fd);
  return -1;
}

void ConnLoop::request_shutdown() {
  // Async-signal-safe: one store plus one write(2). Everything else
  // happens on the loop thread once the wake byte lands.
  shutdown_requested_.store(true, std::memory_order_release);
  wake();
}

void ConnLoop::wake() {
  const char b = 'w';
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] const ssize_t n = ::write(wake_w_, &b, 1);
}

int ConnLoop::poll_timeout_ms() const {
  Clock::time_point nearest = policy_.next_tick();
  if (draining_) nearest = std::min(nearest, drain_deadline_);
  if (nearest == Clock::time_point::max()) return -1;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(nearest - Clock::now())
          .count();
  if (ms <= 0) return 0;
  return static_cast<int>(std::min<long long>(ms + 1, 60000));
}

void ConnLoop::run() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> gens;  // of the client entries, in fds order
  while (true) {
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_deadline_ = Clock::now() + ms_duration(opts_.drain_timeout_ms);
      if (listener_ >= 0) {
        ::close(listener_);
        listener_ = -1;
      }
      // Stop consuming input; owed answers still drain, buffered bytes
      // that never became a request are dropped.
      for (auto& [gen, conn] : conns_) {
        (void)gen;
        conn.discard_input = true;
      }
    }

    policy_.tick();
    for (auto& [gen, conn] : conns_) {
      (void)gen;
      dispatch_buffered(conn);
    }
    reap_connections();
    if (draining_ && conns_.empty()) break;

    fds.clear();
    gens.clear();
    fds.push_back(pollfd{wake_r_, POLLIN, 0});
    const bool listening = listener_ >= 0;
    if (listening) fds.push_back(pollfd{listener_, POLLIN, 0});
    const std::size_t policy_begin = fds.size();
    policy_.add_pollfds(fds);
    const std::size_t conns_begin = fds.size();
    for (auto& [gen, conn] : conns_) {
      short events = 0;
      if (!conn.read_closed && !conn.discard_input && !conn.paused) events |= POLLIN;
      if (conn.wpos < conn.wbuf.size()) events |= POLLOUT;
      if (events == 0) continue;  // progress arrives via the wake pipe
      fds.push_back(pollfd{conn.fd, events, 0});
      gens.push_back(gen);
    }

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; drain state dies with the loop
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_r_, buf, sizeof buf) > 0) {
      }
    }
    if (listening && (fds[1].revents & POLLIN) != 0) accept_clients();
    policy_.on_pollfds(fds.data() + policy_begin, conns_begin - policy_begin);
    for (std::size_t i = conns_begin; i < fds.size(); ++i) {
      const auto it = conns_.find(gens[i - conns_begin]);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      const short re = fds[i].revents;
      if ((re & (POLLERR | POLLNVAL)) != 0) conn.dead = true;
      if (conn.dead) continue;
      if ((re & POLLOUT) != 0) write(conn);
      if ((re & (POLLIN | POLLHUP)) != 0 && !conn.read_closed && !conn.dead) {
        const ReadStatus st = read(conn);
        if (st == ReadStatus::kEof) conn.read_closed = true;  // lines still drain
        if (st == ReadStatus::kError) conn.dead = true;
      }
    }
  }
}

void ConnLoop::accept_clients() {
  while (true) {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: poll again
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conn.gen = next_gen_++;
    conns_.emplace(conn.gen, std::move(conn));
    counters_.connections.increment();
  }
}

ConnLoop::ReadStatus ConnLoop::read(Stream& s) {
  char buf[65536];
  const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
  if (n > 0) {
    counters_.bytes_in.add(static_cast<std::uint64_t>(n));
    s.rbuf.append(buf, static_cast<std::size_t>(n));
    return ReadStatus::kOk;
  }
  if (n == 0) return ReadStatus::kEof;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return ReadStatus::kOk;
  return ReadStatus::kError;
}

bool ConnLoop::flush(Stream& s) {
  while (s.wpos < s.wbuf.size()) {
    fault::maybe_stall();
    const std::size_t want = fault::clamp_write(s.wbuf.size() - s.wpos);
    const ssize_t n = ::send(s.fd, s.wbuf.data() + s.wpos, want, MSG_NOSIGNAL);
    if (n > 0) {
      counters_.bytes_out.add(static_cast<std::uint64_t>(n));
      s.wpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE/ECONNRESET: the peer hung up with bytes still queued. Strictly
    // that stream's problem — the caller drops it, the rest are served.
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
      counters_.peer_resets.increment();
    return false;
  }
  compact(s.wbuf, s.wpos);
  return true;
}

bool ConnLoop::next_line(Stream& s, std::string* line) {
  while (true) {
    const std::size_t nl = s.rbuf.find('\n', s.rpos);
    if (nl == std::string::npos) {
      compact(s.rbuf, s.rpos);
      return false;
    }
    line->assign(s.rbuf, s.rpos, nl - s.rpos);
    s.rpos = nl + 1;
    if (usable_line(*line)) return true;
  }
}

void ConnLoop::respond(Conn& conn, const Response& r) {
  fault::on_response_write();
  conn.wbuf += r.line;
  conn.wbuf.push_back('\n');
  if (fault::should_drop_conn()) conn.drop_after_flush = true;
  counters_.responses.increment();
  // Eager flush: put the response on the wire now instead of waiting a
  // full poll round-trip (EAGAIN leaves the tail for POLLOUT). Besides the
  // latency, this bounds what a mid-batch crash can destroy to the single
  // response being built, not a whole drained batch.
  if (!conn.dead) write(conn);
}

void ConnLoop::write(Conn& conn) {
  if (!flush(conn) || (conn.drop_after_flush && conn.wpos == conn.wbuf.size()))
    conn.dead = true;  // peer gone, or fault drop_conn once drained
}

void ConnLoop::finish(std::uint64_t gen, const Response& r) {
  const auto it = conns_.find(gen);
  if (it == conns_.end()) {
    counters_.dropped_responses.increment();  // client went away
    return;
  }
  Conn& conn = it->second;
  if (conn.inflight > 0) --conn.inflight;
  respond(conn, r);
}

void ConnLoop::dispatch_buffered(Conn& conn) {
  if (conn.dead || conn.discard_input) return;
  std::string line;
  while (true) {
    const bool at_capacity = conn.inflight >= opts_.max_inflight ||
                             conn.wbuf.size() - conn.wpos >= opts_.max_output_bytes;
    if (at_capacity) {
      if (!conn.paused) counters_.backpressure_pauses.increment();
      conn.paused = true;
      return;
    }
    conn.paused = false;
    if (next_line(conn, &line)) {
      process_line(conn, line);
      continue;
    }
    const std::size_t pending = conn.rbuf.size() - conn.rpos;
    if (pending > opts_.max_line_bytes) {
      // A line this long cannot be resynchronized; answer and hang up.
      respond(conn, make_error_response(2, "null", ErrorCode::kParseError,
                                        "request line exceeds size limit"));
      counters_.protocol_errors.increment();
      conn.read_closed = true;
      conn.rpos = conn.rbuf.size();
    } else if (conn.read_closed && pending > 0) {
      // EOF with an unterminated final line: getline parity with the stdin
      // transport — process it as the last request.
      line = conn.rbuf.substr(conn.rpos);
      conn.rpos = conn.rbuf.size();
      if (usable_line(line)) process_line(conn, line);
      continue;
    }
    return;
  }
}

void ConnLoop::process_line(Conn& conn, const std::string& line) {
  ParsedRequest req;
  if (std::optional<Response> err = ServerSession::parse_line(line, &req)) {
    counters_.protocol_errors.increment();
    respond(conn, *err);
    return;
  }
  if (req.kind == "cancel") {
    cancel(conn, req);
    return;
  }
  policy_.on_request(conn, req);
}

void ConnLoop::cancel(Conn& conn, const ParsedRequest& req) {
  const std::vector<RequestId> hits = policy_.cancel(conn.gen, req.cancel_target);
  for (const RequestId& who : hits) {
    // The eventual answer of the withdrawn request finds no owner and is
    // dropped.
    if (conn.inflight > 0) --conn.inflight;
    respond(conn, make_error_response(who.version, who.id_json, ErrorCode::kCancelled,
                                       "request cancelled by client"));
    counters_.cancelled.increment();
  }
  respond(conn, make_result_response(
                    req, std::string("{\"cancelled\":") +
                             (hits.empty() ? "false" : "true") +
                             ",\"target\":" + req.cancel_target + "}"));
}

void ConnLoop::reap_connections() {
  const bool past_drain = draining_ && Clock::now() >= drain_deadline_;
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = it->second;
    const bool no_more_input =
        conn.discard_input || (conn.read_closed && conn.rpos == conn.rbuf.size());
    const bool finished =
        no_more_input && conn.inflight == 0 && conn.wpos == conn.wbuf.size();
    if (!conn.dead && !finished && !past_drain) {
      ++it;
      continue;
    }
    // Dying with answers owed: the policy orphans them now, so their
    // eventual results are dropped instead of routed.
    if (conn.inflight > 0) policy_.on_close(conn.gen);
    ::close(conn.fd);
    counters_.disconnects.increment();
    it = conns_.erase(it);
  }
}

#else  // _WIN32: no Unix-domain sockets; listen_unix() reports why.

ConnLoop::ConnLoop(Policy& policy, const Options& opts, std::string_view counter_prefix)
    : policy_(policy), opts_(opts), counters_(counter_prefix) {}
ConnLoop::~ConnLoop() = default;
bool ConnLoop::listen_unix(const std::string&, std::string* err) {
  if (err != nullptr) *err = "unix sockets are not supported on this platform";
  return false;
}
void ConnLoop::run() {}
void ConnLoop::request_shutdown() {}
void ConnLoop::wake() {}
void ConnLoop::respond(Conn&, const Response&) {}
void ConnLoop::finish(std::uint64_t, const Response&) {}

#endif  // _WIN32

// ---------------------------------------------------------------------------
// ServerLoop: local execution through a ServerSession.
// ---------------------------------------------------------------------------

ServerLoop::ServerLoop(ServerSession& session, Options opts)
    : session_(session),
      default_timeout_ms_(opts.default_timeout_ms),
      loop_(*this, opts, "svc.server"),
      timeouts_(obs::counter("svc.server.timeouts")),
      turnaround_(obs::timer("svc.server.turnaround")) {}

void ServerLoop::run() {
  loop_.run();
  // Force-dropped connections can leave compute jobs still running; their
  // completions capture `this`, so wait them out before returning control
  // (the results themselves are discarded).
  using namespace std::chrono_literals;
  while (outstanding_.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(200us);
}

void ServerLoop::complete(std::uint64_t gen, std::uint64_t seq, Response r) {
  {
    std::lock_guard<std::mutex> lk(cq_mu_);
    cq_.push_back(Completion{gen, seq, std::move(r)});
  }
  loop_.wake();
  outstanding_.fetch_sub(1, std::memory_order_release);
}

void ServerLoop::on_request(ConnLoop::Conn& conn, const ParsedRequest& req) {
  if (!is_analysis_kind(req.kind)) {
    loop_.respond(conn, session_.respond_control(req));
    return;
  }
  const std::uint64_t seq = next_seq_++;
  PendingReq rec;
  rec.who = {req.version, req.id_json};
  rec.start = Clock::now();
  const double timeout_ms = req.timeout_ms > 0.0 ? req.timeout_ms : default_timeout_ms_;
  if (timeout_ms > 0.0) {
    rec.has_deadline = true;
    rec.deadline = rec.start + ms_duration(timeout_ms);
  }
  pending_.emplace(std::make_pair(conn.gen, seq), std::move(rec));
  ++conn.inflight;
  loop_.counters().requests.increment();

  const std::uint64_t gen = conn.gen;
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  session_.submit_async(
      req, [this, gen, seq](Response r) { complete(gen, seq, std::move(r)); });
}

std::vector<ConnLoop::RequestId> ServerLoop::cancel(std::uint64_t gen,
                                                    const std::string& target) {
  std::vector<ConnLoop::RequestId> hits;
  auto it = pending_.lower_bound({gen, 0});
  while (it != pending_.end() && it->first.first == gen) {
    if (it->second.who.id_json == target) {
      hits.push_back(std::move(it->second.who));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return hits;
}

void ServerLoop::on_close(std::uint64_t gen) {
  pending_.erase(pending_.lower_bound({gen, 0}), pending_.lower_bound({gen + 1, 0}));
}

void ServerLoop::tick() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lk(cq_mu_);
    batch.swap(cq_);
  }
  for (Completion& c : batch) {
    const auto it = pending_.find({c.gen, c.seq});
    if (it == pending_.end()) {
      // Timed out, cancelled, or the client went away.
      loop_.counters().dropped_responses.increment();
      continue;
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - it->second.start)
                        .count();
    turnaround_.record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
    pending_.erase(it);
    loop_.finish(c.gen, c.response);
  }

  const Clock::time_point now = Clock::now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    const PendingReq& rec = it->second;
    if (!rec.has_deadline || rec.deadline > now) {
      ++it;
      continue;
    }
    loop_.finish(it->first.first,
                 make_error_response(rec.who.version, rec.who.id_json,
                                     ErrorCode::kTimeout, "request deadline exceeded"));
    timeouts_.increment();
    it = pending_.erase(it);
  }
}

Clock::time_point ServerLoop::next_tick() const {
  Clock::time_point nearest = Clock::time_point::max();
  for (const auto& [key, rec] : pending_) {
    (void)key;
    if (rec.has_deadline) nearest = std::min(nearest, rec.deadline);
  }
  return nearest;
}

}  // namespace rfmix::svc
