#include "svc/router.hpp"

#ifndef _WIN32

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/json_writer.hpp"
#include "svc/json_parse.hpp"

namespace rfmix::svc {

namespace {

namespace json = obs::json;
using Clock = RouterLoop::Clock;

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// The analysis-success line make_analysis_response would build, from the
/// raw pieces a Ticket carries (no ParsedRequest at hand on the replay and
/// degrade paths).
Response analysis_response_line(int version, const std::string& id_json, bool cached,
                                const Hash128& key, std::string_view payload) {
  Response r;
  r.ok = true;
  r.line = response_head(version, id_json, /*ok=*/true);
  r.line += ",\"cached\":";
  r.line += cached ? "true" : "false";
  r.line += ",\"deduped\":false,\"key\":";
  r.line += json::quoted(key.hex());
  r.line += ",\"result\":";
  r.line += payload;
  r.line += "}";
  return r;
}

}  // namespace

RouterLoop::RouterLoop(Supervisor& sup, ResultCache& cache, Options opts)
    : sup_(sup),
      cache_(cache),
      opts_(opts),
      loop_(*this, opts, "svc.router"),
      cache_hits_(obs::counter("svc.router.cache_hits")),
      replays_(obs::counter("svc.router.replays")),
      unavailable_(obs::counter("svc.router.unavailable")),
      worker_disconnects_(obs::counter("svc.router.worker_disconnects")),
      heartbeat_failures_(obs::counter("svc.router.heartbeat_failures")) {
  links_.resize(sup_.workers().size());
}

RouterLoop::~RouterLoop() {
  for (WorkerLink& l : links_)
    if (l.fd >= 0) ::close(l.fd);
}

void RouterLoop::run() {
  const Clock::time_point start = Clock::now();
  for (WorkerLink& l : links_)
    l.connect_deadline = start + ms_duration(opts_.connect_timeout_ms);
  loop_.run();
}

void RouterLoop::bump(std::uint64_t& stat, obs::Counter& counter) {
  ++stat;
  counter.increment();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

int RouterLoop::pick_worker(const Hash128& key) const {
  // Rendezvous (highest-random-weight) hashing: every (key, worker) pair
  // gets a deterministic score, the live worker with the top score wins.
  // Key affinity while the live set is stable, minimal migration when it
  // changes, and no ring state to maintain.
  int best = -1;
  Hash128 best_score{};
  const auto& workers = sup_.workers();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (workers[i].state != Supervisor::WorkerState::kRunning) continue;
    if (links_[i].failed) continue;  // kill in flight; not routable
    const Hash128 score = hash128(key.hex(), 0x9e3779b9u + static_cast<std::uint64_t>(i));
    if (best < 0 || score.hi > best_score.hi ||
        (score.hi == best_score.hi && score.lo > best_score.lo)) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

double RouterLoop::retry_after_ms() const {
  const Clock::time_point ev = sup_.next_event();
  if (ev == Clock::time_point::max()) return opts_.unavailable_retry_floor_ms;
  const double ms =
      std::chrono::duration<double, std::milli>(ev - Clock::now()).count();
  return std::max(ms, opts_.unavailable_retry_floor_ms);
}

void RouterLoop::send_to_worker(int idx, const std::string& line) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  l.wbuf += line;
  l.wbuf.push_back('\n');
  if (l.state == LinkState::kConnected) write_worker(idx);
}

bool RouterLoop::route_or_degrade(std::uint64_t ticket_id) {
  const auto it = tickets_.find(ticket_id);
  if (it == tickets_.end()) return false;
  Ticket& t = it->second;
  const int w = pick_worker(t.key);
  if (w >= 0) {
    t.worker = w;
    send_to_worker(w, t.forward_line);
    return true;
  }
  if (fleet_may_recover()) {
    // Every worker is momentarily down but at least one is coming back
    // (crash-loop respawn, kill in flight). Failing now would turn a
    // restart blip into client-visible errors; park instead and
    // re-dispatch when a link comes up. The deadline bounds the wait.
    t.worker = -1;
    parked_.emplace_back(ticket_id,
                         Clock::now() + ms_duration(opts_.park_timeout_ms));
    return true;
  }
  degrade_ticket(it);
  return false;
}

bool RouterLoop::fleet_may_recover() const {
  if (sup_.next_event() != Clock::time_point::max()) return true;
  const auto& workers = sup_.workers();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    // Link failed but the process is not yet reaped: the supervisor will
    // observe the death on its next poll and schedule a respawn.
    if (workers[i].state == Supervisor::WorkerState::kRunning &&
        links_[i].failed)
      return true;
  }
  return false;
}

void RouterLoop::degrade_ticket(std::map<std::uint64_t, Ticket>::iterator it) {
  // A key someone computed before still answers from the router's own
  // tier; everything else gets a bounded, structured refusal instead of
  // an unbounded wait.
  Ticket& t = it->second;
  Response r;
  if (std::optional<std::string> payload = cache_.get(t.key)) {
    bump(stats_.cache_hits, cache_hits_);
    r = analysis_response_line(t.version, t.id_json, /*cached=*/true, t.key, *payload);
  } else {
    bump(stats_.unavailable, unavailable_);
    r = make_unavailable_response(t.version, t.id_json,
                                  "no live worker for this request", retry_after_ms());
  }
  loop_.finish(t.client_gen, r);
  tickets_.erase(it);
}

void RouterLoop::flush_parked() {
  if (parked_.empty()) return;
  std::deque<std::pair<std::uint64_t, Clock::time_point>> waiting;
  waiting.swap(parked_);
  for (const auto& [id, deadline] : waiting) {
    const auto it = tickets_.find(id);
    if (it == tickets_.end() || it->second.worker >= 0) continue;  // stale
    route_or_degrade(id);  // may re-park with a fresh deadline
  }
}

void RouterLoop::expire_parked() {
  if (parked_.empty()) return;
  const Clock::time_point now = Clock::now();
  std::deque<std::pair<std::uint64_t, Clock::time_point>> waiting;
  waiting.swap(parked_);
  for (const auto& [id, deadline] : waiting) {
    const auto it = tickets_.find(id);
    if (it == tickets_.end() || it->second.worker >= 0) continue;  // stale
    if (now >= deadline) {
      degrade_ticket(it);
      continue;
    }
    // A respawned worker is routable the moment it is kRunning — bytes
    // queue on the link and flush on connect — so dispatch eagerly
    // rather than waiting for the connect to complete.
    const int w = pick_worker(it->second.key);
    if (w >= 0) {
      it->second.worker = w;
      send_to_worker(w, it->second.forward_line);
      continue;
    }
    if (fleet_may_recover()) {
      parked_.emplace_back(id, deadline);  // keep the original give-up time
    } else {
      degrade_ticket(it);
    }
  }
}

void RouterLoop::reroute_worker(int idx) {
  std::vector<std::uint64_t> affected;
  for (const auto& [id, t] : tickets_)
    if (t.worker == idx) affected.push_back(id);
  for (const std::uint64_t id : affected) {
    const auto tit = tickets_.find(id);
    if (tit == tickets_.end()) continue;
    Ticket& t = tit->second;
    t.worker = -1;
    ++t.replays;
    if (t.replays > opts_.max_replays) {
      bump(stats_.unavailable, unavailable_);
      loop_.finish(t.client_gen,
                   make_unavailable_response(
                       t.version, t.id_json,
                       "request replayed too many times across worker failures",
                       retry_after_ms()));
      tickets_.erase(tit);
      continue;
    }
    bump(stats_.replays, replays_);
    route_or_degrade(id);
  }
}

// ---------------------------------------------------------------------------
// Worker link management
// ---------------------------------------------------------------------------

void RouterLoop::link_down(int idx, bool and_kill) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  if (l.fd >= 0) {
    ::close(l.fd);
    bump(stats_.worker_disconnects, worker_disconnects_);
  }
  l = WorkerLink{};
  l.failed = true;
  if (and_kill) sup_.kill_worker(idx);
  reroute_worker(idx);
}

void RouterLoop::on_worker_spawned(int idx) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  if (l.fd >= 0) ::close(l.fd);
  l = WorkerLink{};
  l.connect_deadline = Clock::now() + ms_duration(opts_.connect_timeout_ms);
}

void RouterLoop::try_connect(int idx) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  bool in_progress = false;
  const int fd = ConnLoop::connect_unix(sup_.worker(idx).socket_path, &in_progress);
  if (fd >= 0) {
    l.fd = fd;
    if (in_progress) {
      l.state = LinkState::kConnecting;
      return;
    }
    l.state = LinkState::kConnected;
    l.hb_next = Clock::now() + ms_duration(opts_.heartbeat_interval_ms);
    flush_parked();  // a routable worker exists again
    write_worker(idx);
    return;
  }
  // ENOENT / ECONNREFUSED: the worker has not bound its socket yet.
  // Retry on the next tick until the connect deadline, then give up on
  // this incarnation (kill; the supervisor respawns it).
  if (Clock::now() >= l.connect_deadline) {
    bump(stats_.heartbeat_failures, heartbeat_failures_);
    link_down(idx, /*and_kill=*/true);
  }
}

void RouterLoop::tick() {
  for (const int idx : sup_.poll_children()) link_down(idx, /*and_kill=*/false);
  for (const int idx : sup_.spawn_due()) on_worker_spawned(idx);

  const Clock::time_point now = Clock::now();
  const auto& workers = sup_.workers();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    WorkerLink& l = links_[i];
    const int idx = static_cast<int>(i);
    if (workers[i].state != Supervisor::WorkerState::kRunning) continue;
    if (l.failed) continue;
    if (l.state == LinkState::kDisconnected) {
      try_connect(idx);
      continue;
    }
    if (l.state == LinkState::kConnecting && now >= l.connect_deadline) {
      bump(stats_.heartbeat_failures, heartbeat_failures_);
      link_down(idx, /*and_kill=*/true);
      continue;
    }
    if (l.state != LinkState::kConnected) continue;
    if (l.hb_outstanding && now >= l.hb_deadline) {
      // The worker accepted our connection but stopped answering pings:
      // hung, not dead. Make it dead; replay handles the rest.
      bump(stats_.heartbeat_failures, heartbeat_failures_);
      link_down(idx, /*and_kill=*/true);
      continue;
    }
    if (!l.hb_outstanding && now >= l.hb_next) {
      l.hb_outstanding = true;
      l.hb_deadline = now + ms_duration(opts_.heartbeat_timeout_ms);
      l.hb_next = now + ms_duration(opts_.heartbeat_interval_ms);
      send_to_worker(idx, "{\"v\":2,\"id\":\"hb\",\"kind\":\"ping\"}");
    }
  }
  expire_parked();
}

void RouterLoop::process_worker_line(int idx, const std::string& line) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  static const std::string kHbPrefix = "{\"v\":2,\"id\":\"hb\",";
  if (line.compare(0, kHbPrefix.size(), kHbPrefix) == 0) {
    l.hb_outstanding = false;
    return;
  }
  // Everything else carries a numeric ticket id the router assigned:
  // {"v":2,"id":<ticket>,"ok":<bool><tail>
  static const std::string kHead = "{\"v\":2,\"id\":";
  static const std::string kOk = ",\"ok\":";
  std::size_t pos = kHead.size();
  std::uint64_t ticket = 0;
  bool any_digit = false;
  if (line.compare(0, kHead.size(), kHead) == 0) {
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      ticket = ticket * 10 + static_cast<std::uint64_t>(line[pos] - '0');
      ++pos;
      any_digit = true;
    }
  }
  if (!any_digit || line.compare(pos, kOk.size(), kOk) != 0) {
    // A worker speaking something other than our protocol is as broken as
    // a dead one.
    loop_.counters().protocol_errors.increment();
    link_down(idx, /*and_kill=*/true);
    return;
  }
  pos += kOk.size();
  bool ok = false;
  if (line.compare(pos, 4, "true") == 0) {
    ok = true;
    pos += 4;
  } else if (line.compare(pos, 5, "false") == 0) {
    pos += 5;
  } else {
    loop_.counters().protocol_errors.increment();
    link_down(idx, /*and_kill=*/true);
    return;
  }
  const std::string tail = line.substr(pos);

  const auto it = tickets_.find(ticket);
  if (it == tickets_.end()) {
    // Cancelled client-side, or a replay raced the original worker's
    // answer; either way the result is already spoken for.
    loop_.counters().dropped_responses.increment();
    return;
  }
  const Ticket t = std::move(it->second);
  tickets_.erase(it);

  if (ok) maybe_cache_fill(t.key, tail);

  Response r;
  r.ok = ok;
  if (!ok && t.version == 1) {
    // v1 errors are a plain string, not the v2 object the worker sent.
    // The message round-trips; make_error_response ignores the code for
    // v1 — bytes match a direct v1 session.
    r = make_error_response(1, t.id_json, ErrorCode::kExecFailed,
                            error_message_of(tail));
  } else {
    r.line = response_head(t.version, t.id_json, ok) + tail;
  }
  loop_.finish(t.client_gen, r);
}

std::string RouterLoop::error_message_of(const std::string& tail) {
  // tail = ,"error":{"code":"...","message":<quoted>[,...]}}  — lift the
  // message text back out through the real JSON parser (it may contain
  // escapes); fall back to the raw tail on any surprise.
  try {
    const JsonValue doc = json_parse("{\"_\":0" + tail);
    if (const JsonValue* err = doc.find("error"))
      if (const JsonValue* msg = err->find("message")) return msg->as_string();
  } catch (const std::exception&) {
  }
  return "worker error";
}

void RouterLoop::maybe_cache_fill(const Hash128& key, const std::string& tail) {
  // Successful analysis tails have the fixed shape
  //   ,"cached":B,"deduped":B,"key":"<32 hex>","result":<payload>}
  // parsed positionally (the payload is client-influenced bytes; searching
  // it for markers would be spoofable). Control results (pong, stats)
  // simply fail the match and are not cached.
  std::size_t pos = 0;
  const auto eat = [&](std::string_view lit) {
    if (tail.compare(pos, lit.size(), lit) != 0) return false;
    pos += lit.size();
    return true;
  };
  if (!eat(",\"cached\":")) return;
  if (!eat("true") && !eat("false")) return;
  if (!eat(",\"deduped\":")) return;
  if (!eat("true") && !eat("false")) return;
  if (!eat(",\"key\":\"")) return;
  if (pos + 32 > tail.size()) return;
  const std::string_view hex(tail.data() + pos, 32);
  pos += 32;
  if (!eat("\",\"result\":")) return;
  if (tail.size() <= pos || tail.back() != '}') return;
  if (hex != key.hex()) return;  // defensive: worker disagreed on the key
  cache_.put(key, tail.substr(pos, tail.size() - pos - 1));
}

void RouterLoop::worker_io(int idx, short revents) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  if (l.fd < 0) return;
  if ((revents & (POLLERR | POLLNVAL)) != 0) {
    link_down(idx, /*and_kill=*/false);
    return;
  }
  if (l.state == LinkState::kConnecting && (revents & (POLLOUT | POLLHUP)) != 0) {
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(l.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(l.fd);
      l.fd = -1;
      l.state = LinkState::kDisconnected;  // retried until connect_deadline
      return;
    }
    l.state = LinkState::kConnected;
    l.hb_next = Clock::now() + ms_duration(opts_.heartbeat_interval_ms);
    flush_parked();  // a routable worker exists again
  }
  if (l.state != LinkState::kConnected) return;
  if ((revents & POLLOUT) != 0) write_worker(idx);
  if (l.fd < 0) return;  // write failure tore the link down
  if ((revents & (POLLIN | POLLHUP)) == 0) return;
  if (loop_.read(l) != ConnLoop::ReadStatus::kOk) {
    // EOF: the worker died (crash, kill -9, crash_after). Replay.
    link_down(idx, /*and_kill=*/false);
    return;
  }
  std::string line;
  while (ConnLoop::next_line(l, &line)) {
    process_worker_line(idx, line);
    if (l.fd < 0) return;  // the line took the link down
  }
}

void RouterLoop::write_worker(int idx) {
  WorkerLink& l = links_[static_cast<std::size_t>(idx)];
  if (l.fd < 0 || l.state != LinkState::kConnected) return;
  if (!loop_.flush(l)) link_down(idx, /*and_kill=*/false);
}

void RouterLoop::add_pollfds(std::vector<pollfd>& fds) {
  polled_links_.clear();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const WorkerLink& l = links_[i];
    if (l.fd < 0) continue;
    short events = 0;
    if (l.state == LinkState::kConnecting) events = POLLOUT;
    if (l.state == LinkState::kConnected) {
      events = POLLIN;
      if (l.wpos < l.wbuf.size()) events |= POLLOUT;
    }
    if (events == 0) continue;
    fds.push_back(pollfd{l.fd, events, 0});
    polled_links_.push_back(static_cast<int>(i));
  }
}

void RouterLoop::on_pollfds(const pollfd* fds, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (fds[i].revents != 0) worker_io(polled_links_[i], fds[i].revents);
}

Clock::time_point RouterLoop::next_tick() const {
  Clock::time_point nearest = sup_.next_event();
  if (!parked_.empty()) nearest = std::min(nearest, parked_.front().second);
  const Clock::time_point now = Clock::now();
  const auto& workers = sup_.workers();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const WorkerLink& l = links_[i];
    if (workers[i].state != Supervisor::WorkerState::kRunning) continue;
    if (l.failed) {
      // Dead or killed worker awaiting waitpid. The supervisor cannot
      // timestamp the reap, and without the binary's SIGCHLD hook
      // nothing else wakes the loop — poll soon so the respawn (and any
      // parked tickets) are not stuck behind a long idle sleep.
      nearest = std::min(nearest, now + ms_duration(10.0));
    } else if (l.state == LinkState::kDisconnected) {
      nearest = std::min(nearest, now + ms_duration(10.0));  // connect retry
    } else if (l.state == LinkState::kConnecting) {
      nearest = std::min(nearest, l.connect_deadline);
    } else {
      nearest = std::min(nearest, l.hb_outstanding ? l.hb_deadline : l.hb_next);
    }
  }
  return nearest;
}

// ---------------------------------------------------------------------------
// Client requests
// ---------------------------------------------------------------------------

void RouterLoop::on_request(ConnLoop::Conn& conn, const ParsedRequest& req) {
  if (req.kind == "ping") {
    loop_.respond(conn, make_result_response(req, "{\"pong\":true}"));
    return;
  }
  if (req.kind == "stats") {
    loop_.respond(conn, make_result_response(req, router_stats_json()));
    return;
  }

  Hash128 key;
  try {
    key = request_key(req.request);
  } catch (const std::exception& e) {
    loop_.respond(conn, make_error_response(req.version, req.id_json,
                                            ErrorCode::kExecFailed, e.what()));
    return;
  } catch (...) {
    loop_.respond(conn, make_error_response(req.version, req.id_json,
                                            ErrorCode::kExecFailed,
                                            "unknown keying failure"));
    return;
  }
  ++stats_.requests;
  loop_.counters().requests.increment();

  if (std::optional<std::string> payload = cache_.get(key)) {
    bump(stats_.cache_hits, cache_hits_);
    loop_.respond(conn, analysis_response_line(req.version, req.id_json,
                                               /*cached=*/true, key, *payload));
    return;
  }

  const std::uint64_t ticket_id = next_ticket_++;
  Ticket t;
  t.client_gen = conn.gen;
  t.id_json = req.id_json;
  t.version = req.version;
  t.key = key;
  t.forward_line = serialize_v2_request(req, std::to_string(ticket_id));
  tickets_.emplace(ticket_id, std::move(t));
  ++conn.inflight;
  route_or_degrade(ticket_id);
}

std::vector<ConnLoop::RequestId> RouterLoop::cancel(std::uint64_t gen,
                                                    const std::string& target) {
  // The worker still answers a cancelled ticket eventually; the
  // unknown-ticket path drops that result on the floor.
  std::vector<ConnLoop::RequestId> hits;
  for (auto it = tickets_.begin(); it != tickets_.end();) {
    if (it->second.client_gen == gen && it->second.id_json == target) {
      hits.push_back({it->second.version, it->second.id_json});
      it = tickets_.erase(it);
    } else {
      ++it;
    }
  }
  return hits;
}

void RouterLoop::on_close(std::uint64_t gen) {
  // Orphan the client's tickets so workers' eventual answers are dropped
  // instead of replayed pointlessly.
  for (auto it = tickets_.begin(); it != tickets_.end();) {
    if (it->second.client_gen == gen) {
      it = tickets_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string RouterLoop::router_stats_json() const {
  const ResultCache::Stats cs = cache_.stats();
  std::uint64_t restarts = 0;
  for (const Supervisor::Worker& w : sup_.workers())
    restarts += w.spawn_count > 0 ? w.spawn_count - 1 : 0;
  std::string out = "{\"router\":{";
  out += "\"workers\":" + json::number(std::uint64_t(sup_.workers().size()));
  out += ",\"alive\":" + json::number(std::uint64_t(sup_.alive_count()));
  out += ",\"inflight\":" + json::number(std::uint64_t(tickets_.size()));
  out += ",\"requests\":" + json::number(stats_.requests);
  out += ",\"cache_hits\":" + json::number(stats_.cache_hits);
  out += ",\"replays\":" + json::number(stats_.replays);
  out += ",\"unavailable\":" + json::number(stats_.unavailable);
  out += ",\"worker_restarts\":" + json::number(restarts);
  out += ",\"heartbeat_failures\":" + json::number(stats_.heartbeat_failures);
  out += "},\"cache\":{";
  out += "\"hits\":" + json::number(cs.hits);
  out += ",\"misses\":" + json::number(cs.misses);
  out += ",\"entries\":" + json::number(std::uint64_t(cache_.size()));
  out += "}}";
  return out;
}

}  // namespace rfmix::svc

#endif  // _WIN32
