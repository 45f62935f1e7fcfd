// rfmix-router: the fault-tolerant front process of the rfmixd cluster.
//
// RouterLoop is the routing policy of the shared client transport
// (ConnLoop, event_loop.hpp): clients connect to the router's Unix socket
// exactly as they would to a single rfmixd, and the router maintains one
// NDJSON link to each supervised worker daemon (supervisor.hpp owns the
// processes), framed and flushed by the same ConnLoop code as client
// connections. Analysis requests are keyed by their content hash and
// rendezvous-hashed (highest-random-weight over the live workers) so a
// key always lands on the same worker while that worker lives — each
// worker's LRU cache stays disjoint and maximally warm — and migrates
// minimally when the live set changes.
//
// Fault tolerance, per request:
//  * every dispatched request sits in an inflight table keyed by a router
//    ticket (the id forwarded to the worker; the client's id is restored
//    on the way back, so routing is invisible in the response bytes);
//  * a worker death (connection EOF, SIGCHLD) replays that worker's
//    inflight tickets to the surviving workers — safe to do blindly
//    because results are content-addressed: re-executing the same key is
//    idempotent down to the payload bytes;
//  * worker responses feed a read-through cache tier in the router, so
//    repeated keys are answered without touching a worker at all;
//  * when no worker is live but the supervisor is bringing one back
//    (scheduled respawn, kill in flight), tickets park for a bounded
//    window and re-dispatch the moment a worker link comes up — a
//    crash-restart blip costs latency, not errors;
//  * when no worker is live and none is coming back (restarts disabled,
//    open circuit breaker past its window) the router answers cached keys
//    from its own tier and everything else with a structured
//    `unavailable` error carrying retry_after_ms — it degrades, it never
//    hangs;
//  * a ping heartbeat on every worker connection turns a hung-but-alive
//    worker (stall fault, livelock) into a kill + restart + replay.
//
// Counters: the svc.router.* transport set (event_loop.hpp; worker-link
// bytes count in bytes_in/bytes_out, a worker speaking garbage in
// protocol_errors) plus svc.router.{cache_hits,replays,unavailable,
// worker_disconnects,heartbeat_failures}. See docs/robustness.md for the
// supervision tree and replay semantics.
#pragma once

#ifndef _WIN32

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "svc/cache.hpp"
#include "svc/event_loop.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "svc/supervisor.hpp"

namespace rfmix::svc {

class RouterLoop final : private ConnLoop::Policy {
 public:
  using Clock = ConnLoop::Clock;

  struct Options : ConnLoop::Options {
    Options() { max_inflight = 256; }  // per-client routed requests
    int max_replays = 4;                 // per ticket, before giving up
    double connect_timeout_ms = 5000.0;  // spawn -> connected, else kill
    double heartbeat_interval_ms = 500.0;
    double heartbeat_timeout_ms = 2000.0;  // ping unanswered -> kill worker
    /// retry_after_ms floor for unavailable answers when the supervisor
    /// has nothing scheduled (e.g. restarts disabled).
    double unavailable_retry_floor_ms = 250.0;
    /// How long a ticket may wait for a pending respawn when no worker is
    /// routable, before degrading to cache-tier / unavailable.
    double park_timeout_ms = 5000.0;
  };

  struct Stats {
    std::uint64_t requests = 0;      // analysis requests admitted
    std::uint64_t cache_hits = 0;    // answered from the router tier
    std::uint64_t replays = 0;       // tickets re-dispatched after a death
    std::uint64_t unavailable = 0;   // degraded answers
    std::uint64_t worker_disconnects = 0;
    std::uint64_t heartbeat_failures = 0;
  };

  /// `cache` is the router's read-through tier (typically router-private;
  /// sharing a disk dir with workers also works — entries are
  /// content-addressed and torn files are quarantined on read).
  RouterLoop(Supervisor& sup, ResultCache& cache, Options opts);
  ~RouterLoop();

  RouterLoop(const RouterLoop&) = delete;
  RouterLoop& operator=(const RouterLoop&) = delete;

  /// Bind the client-facing Unix socket (see ConnLoop::listen_unix).
  bool listen_unix(const std::string& path, std::string* err) {
    return loop_.listen_unix(path, err);
  }

  /// Serve until request_shutdown() completes a drain. The supervisor's
  /// workers must already be started; the loop connects to them as their
  /// sockets appear.
  void run();

  /// Async-signal-safe graceful shutdown.
  void request_shutdown() { loop_.request_shutdown(); }

  /// Async-signal-safe wake (SIGCHLD handler): re-check children now.
  void notify() { loop_.wake(); }

  Stats stats() const { return stats_; }

 private:
  enum class LinkState { kDisconnected, kConnecting, kConnected };

  /// The router's connection to one worker. Bytes queued while
  /// kConnecting flush on connect; a link failure replays its tickets.
  struct WorkerLink : ConnLoop::Stream {
    LinkState state = LinkState::kDisconnected;
    Clock::time_point connect_deadline{};
    /// Set when the link (or its worker) failed; cleared by a respawn.
    /// A failed worker is ineligible for routing until it comes back, so
    /// a heartbeat-killed worker cannot win the rendezvous again while
    /// its SIGKILL is still in flight.
    bool failed = false;
    bool hb_outstanding = false;
    Clock::time_point hb_deadline{};
    Clock::time_point hb_next{};
  };

  struct Ticket {
    std::uint64_t client_gen = 0;
    std::string id_json;  // the client's id, restored on the response
    int version = 2;
    Hash128 key;
    std::string forward_line;  // v2 line with the ticket as id
    int worker = -1;
    int replays = 0;
  };

  void on_request(ConnLoop::Conn& conn, const ParsedRequest& req) override;
  std::vector<ConnLoop::RequestId> cancel(std::uint64_t gen,
                                          const std::string& target) override;
  void on_close(std::uint64_t gen) override;
  void tick() override;  // reap, respawn, connect, heartbeat, expire parked
  Clock::time_point next_tick() const override;
  void add_pollfds(std::vector<pollfd>& fds) override;
  void on_pollfds(const pollfd* fds, std::size_t n) override;

  std::string router_stats_json() const;

  /// Rendezvous winner among live (supervisor-kRunning) workers, or -1.
  int pick_worker(const Hash128& key) const;
  void send_to_worker(int idx, const std::string& line);
  /// Dispatch to the rendezvous winner; with no winner, park (a respawn
  /// is pending) or degrade: answer from the router's cache tier when the
  /// key is known, else `unavailable`. Returns true when the ticket is
  /// still in flight afterwards.
  bool route_or_degrade(std::uint64_t ticket_id);
  /// Re-dispatch (or park/degrade) every ticket assigned to a dead worker.
  void reroute_worker(int idx);
  /// True when a currently-unroutable fleet is expected to recover: the
  /// supervisor has a respawn scheduled, or a kill is still in flight.
  bool fleet_may_recover() const;
  /// Answer a ticket from the degraded path (cache tier / unavailable)
  /// and retire it.
  void degrade_ticket(std::map<std::uint64_t, Ticket>::iterator it);
  /// Re-dispatch parked tickets (a worker link just came up).
  void flush_parked();
  /// Degrade parked tickets whose wait expired or whose fleet stopped
  /// being recoverable.
  void expire_parked();
  double retry_after_ms() const;

  void on_worker_spawned(int idx);
  void try_connect(int idx);
  void link_down(int idx, bool and_kill);
  void process_worker_line(int idx, const std::string& line);
  /// Extract error.message from a worker's structured-error tail (for
  /// re-serializing toward a v1 client, whose errors are plain strings).
  static std::string error_message_of(const std::string& tail);
  /// Feed the router cache tier from a successful analysis tail.
  void maybe_cache_fill(const Hash128& key, const std::string& tail);
  void worker_io(int idx, short revents);
  void write_worker(int idx);
  /// Count one event in both the stats() mirror and its obs counter.
  static void bump(std::uint64_t& stat, obs::Counter& counter);

  Supervisor& sup_;
  ResultCache& cache_;
  Options opts_;
  ConnLoop loop_;
  obs::Counter& cache_hits_;
  obs::Counter& replays_;
  obs::Counter& unavailable_;
  obs::Counter& worker_disconnects_;
  obs::Counter& heartbeat_failures_;
  std::uint64_t next_ticket_ = 1;
  std::vector<WorkerLink> links_;  // index-aligned with sup_.workers()
  std::vector<int> polled_links_;  // worker index of each add_pollfds entry
  std::map<std::uint64_t, Ticket> tickets_;
  /// Tickets waiting out a fleet blip: (ticket id, give-up time). Entries
  /// whose ticket vanished (cancel, client gone) or was re-dispatched are
  /// skipped lazily.
  std::deque<std::pair<std::uint64_t, Clock::time_point>> parked_;
  Stats stats_;
};

}  // namespace rfmix::svc

#endif  // _WIN32
