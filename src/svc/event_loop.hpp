// The client transport shared by rfmixd and rfmix-router: one poll(2)
// connection loop (ConnLoop) over a Unix-domain listening socket, and the
// rfmixd policy on top of it (ServerLoop).
//
// ConnLoop owns all connection state on one thread and knows nothing about
// what a request means:
//  * the listener — listen_unix() removes a stale socket at the path but
//    refuses to clobber a non-socket or steal a live server's socket —,
//    the wake pipe, and request_shutdown() (async-signal-safe: the daemons
//    call it from SIGINT/SIGTERM handlers), which stops accepting and
//    reading, waits for every owed response to flush, and returns from
//    run() (or gives up at the drain deadline);
//  * connections keyed by generation, not fd: fds are reused by the
//    kernel, and a late answer must never reach a different client on a
//    recycled fd;
//  * framing: partial-line reads are buffered until a '\n' arrives, a line
//    may span any number of reads and one read may carry many lines; an
//    over-long line is answered with parse_error and the connection is
//    closed; at EOF an unterminated final line is still processed;
//  * backpressure — a connection with max_inflight owed answers or
//    max_output_bytes of unread responses stops being read (POLLIN off)
//    until it drains, so one greedy client queues against itself;
//  * request parsing (protocol errors answered in place) and the v2
//    "cancel" op: every owed request with the target id answers with code
//    "cancelled", the cancel itself reports whether anything was found;
//  * responses are flushed eagerly, the rest on POLLOUT.
//
// A Policy decides what a parsed request does. There are exactly two:
// ServerLoop below executes requests locally, and RouterLoop (router.hpp)
// routes them to supervised worker daemons.
//
// Counters, with <p> = server for rfmixd and router for rfmix-router:
// svc.<p>.{connections,disconnects,requests,responses,protocol_errors,
// cancelled,backpressure_pauses,dropped_responses,peer_resets,bytes_in,
// bytes_out}. See docs/service.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "svc/server.hpp"

struct pollfd;

namespace rfmix::svc {

class ConnLoop {
 public:
  using Clock = std::chrono::steady_clock;

  /// Transport limits. ServerLoop and RouterLoop extend this with their
  /// own knobs; the router raises max_inflight to 256.
  struct Options {
    std::size_t max_inflight = 64;           // per-connection owed answers
    std::size_t max_output_bytes = 4 << 20;  // per-connection unsent responses
    std::size_t max_line_bytes = 8 << 20;    // one request line; above: close
    double drain_timeout_ms = 30000.0;       // graceful-shutdown hard cap
    int backlog = 64;
  };

  /// One newline-delimited byte stream on a nonblocking fd: a client
  /// connection, or one of the router's worker links.
  struct Stream {
    int fd = -1;
    std::string rbuf;      // bytes read, not yet consumed as lines
    std::size_t rpos = 0;  // consumed prefix of rbuf
    std::string wbuf;      // bytes not yet written
    std::size_t wpos = 0;  // written prefix of wbuf
  };

  struct Conn : Stream {
    std::uint64_t gen = 0;
    std::size_t inflight = 0;       // requests the policy still owes an answer
    bool read_closed = false;       // EOF seen (buffered lines still drain)
    bool discard_input = false;     // shutdown: unparsed bytes are dropped
    bool paused = false;            // backpressure: POLLIN disabled
    bool dead = false;              // I/O error: reaped without draining
    bool drop_after_flush = false;  // fault drop_conn: hang up once drained
  };

  /// Who an owed request answers to.
  struct RequestId {
    int version = 2;
    std::string id_json;
  };

  class Policy {
   public:
    /// A parsed request other than cancel. Answer it now with respond(),
    /// or count it in conn.inflight and answer it later with finish().
    virtual void on_request(Conn& conn, const ParsedRequest& req) = 0;
    /// Forget connection `gen`'s owed requests whose id is `target`; the
    /// loop answers each returned one "cancelled" and releases its slot.
    virtual std::vector<RequestId> cancel(std::uint64_t gen,
                                          const std::string& target) = 0;
    /// Connection `gen` closed while still owed answers: drop them.
    virtual void on_close(std::uint64_t gen) = 0;
    /// Once per loop turn, before buffered input is dispatched.
    virtual void tick() = 0;
    /// When tick() next has timed work (time_point::max() if none).
    virtual Clock::time_point next_tick() const = 0;
    /// Append descriptors of the policy's own to the poll set, then take
    /// their results back, in the same order.
    virtual void add_pollfds(std::vector<pollfd>& fds) = 0;
    virtual void on_pollfds(const pollfd* fds, std::size_t n) = 0;

   protected:
    ~Policy() = default;
  };

  /// The svc.<prefix>.* transport counters, resolved once per loop.
  struct Counters {
    explicit Counters(std::string_view prefix);
    obs::Counter& connections;
    obs::Counter& disconnects;
    obs::Counter& requests;
    obs::Counter& responses;
    obs::Counter& protocol_errors;
    obs::Counter& cancelled;
    obs::Counter& backpressure_pauses;
    obs::Counter& dropped_responses;
    obs::Counter& peer_resets;
    obs::Counter& bytes_in;
    obs::Counter& bytes_out;
  };

  /// `counter_prefix` is "svc.server" or "svc.router".
  ConnLoop(Policy& policy, const Options& opts, std::string_view counter_prefix);
  ~ConnLoop();

  ConnLoop(const ConnLoop&) = delete;
  ConnLoop& operator=(const ConnLoop&) = delete;

  /// Bind and listen on a Unix-domain socket at `path`. A socket file left
  /// by a dead server is replaced; anything else at the path (a regular
  /// file, a live server's socket) is refused. Returns false with a
  /// human-readable reason in `*err`.
  bool listen_unix(const std::string& path, std::string* err);

  /// Start a nonblocking connect to the Unix-domain socket at `path`.
  /// Returns the fd — connected, or still connecting when *in_progress —
  /// or -1 when nothing accepts there (yet).
  static int connect_unix(const std::string& path, bool* in_progress);

  /// Serve until request_shutdown() completes a drain. Must be called
  /// after a successful listen_unix, and only once.
  void run();

  /// Begin graceful shutdown. Async-signal-safe and thread-safe: an atomic
  /// flag plus wake().
  void request_shutdown();

  /// Make poll(2) return now. Async-signal-safe and thread-safe: one
  /// write(2) to the wake pipe.
  void wake();

  /// Queue one response line on `conn` and start writing it.
  void respond(Conn& conn, const Response& r);

  /// Answer one of connection `gen`'s owed requests and release its slot;
  /// counted as dropped when the connection is gone.
  void finish(std::uint64_t gen, const Response& r);

  enum class ReadStatus { kOk, kEof, kError };
  /// One recv(2) into s.rbuf (kOk also when nothing was ready).
  ReadStatus read(Stream& s);
  /// Write as much of s.wbuf as the socket takes. False on a fatal write
  /// error (a peer that hung up included): the caller drops the stream.
  bool flush(Stream& s);
  /// Pop the next complete, non-blank line (CR stripped) from s.rbuf.
  static bool next_line(Stream& s, std::string* line);

  Counters& counters() { return counters_; }

 private:
  void accept_clients();
  /// flush() for a client: a failure, or a drained drop_after_flush
  /// connection, marks it dead.
  void write(Conn& conn);
  void dispatch_buffered(Conn& conn);
  void process_line(Conn& conn, const std::string& line);
  void cancel(Conn& conn, const ParsedRequest& req);
  void reap_connections();
  int poll_timeout_ms() const;

  Policy& policy_;
  Options opts_;
  Counters counters_;
  int listener_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::uint64_t next_gen_ = 1;
  std::map<std::uint64_t, Conn> conns_;
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;
  Clock::time_point drain_deadline_{};
};

/// rfmixd's policy: analysis requests go to ServerSession::submit_async,
/// pool workers hand finished responses back through a mutex-guarded
/// completion queue plus a wake, and the loop routes them by (connection
/// generation, request sequence) — so responses complete out of order and
/// clients match them up by the echoed id (which is why v2 makes the echo
/// mandatory). Every request can carry a deadline (v2 timeout_ms or the
/// server default); expiry answers with code "timeout" and the eventual
/// compute result is dropped on arrival. run() returns only once no
/// dispatched job can still call back.
///
/// Counters: the svc.server.* set above plus svc.server.timeouts; timer
/// svc.server.turnaround (dispatch -> response queued).
class ServerLoop final : private ConnLoop::Policy {
 public:
  struct Options : ConnLoop::Options {
    double default_timeout_ms = 0.0;  // applied when a request has none
  };

  explicit ServerLoop(ServerSession& session) : ServerLoop(session, Options{}) {}
  ServerLoop(ServerSession& session, Options opts);

  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  /// See ConnLoop::listen_unix.
  bool listen_unix(const std::string& path, std::string* err) {
    return loop_.listen_unix(path, err);
  }
  /// Serve until request_shutdown() completes a drain.
  void run();
  /// Async-signal-safe graceful shutdown.
  void request_shutdown() { loop_.request_shutdown(); }

 private:
  using Clock = ConnLoop::Clock;

  struct PendingReq {
    ConnLoop::RequestId who;
    bool has_deadline = false;
    Clock::time_point deadline{};
    Clock::time_point start{};
  };

  struct Completion {
    std::uint64_t gen = 0;
    std::uint64_t seq = 0;
    Response response;
  };

  void on_request(ConnLoop::Conn& conn, const ParsedRequest& req) override;
  std::vector<ConnLoop::RequestId> cancel(std::uint64_t gen,
                                          const std::string& target) override;
  void on_close(std::uint64_t gen) override;
  void tick() override;
  Clock::time_point next_tick() const override;
  void add_pollfds(std::vector<pollfd>&) override {}
  void on_pollfds(const pollfd*, std::size_t) override {}

  /// Thread-safe handoff from completion callbacks (any thread).
  void complete(std::uint64_t gen, std::uint64_t seq, Response r);

  ServerSession& session_;
  double default_timeout_ms_;
  ConnLoop loop_;
  obs::Counter& timeouts_;
  obs::Timer& turnaround_;
  /// Owed requests by (connection generation, request sequence).
  std::map<std::pair<std::uint64_t, std::uint64_t>, PendingReq> pending_;
  std::uint64_t next_seq_ = 0;
  // Dispatched-but-unrouted completions; run() waits for zero before
  // returning so no callback can outlive the loop object.
  std::atomic<int> outstanding_{0};

  std::mutex cq_mu_;
  std::vector<Completion> cq_;
};

}  // namespace rfmix::svc
