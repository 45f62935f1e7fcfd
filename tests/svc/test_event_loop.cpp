// End-to-end tests for the concurrent rfmixd transport: a real ServerLoop
// listening on a real Unix socket, exercised by real client connections.
// Covers the tentpole guarantees: many clients at once, out-of-order
// completion with id matching, byte-identical responses to a serial
// session, graceful drain on shutdown, cancel, deadlines, backpressure,
// torn writes, and malformed-input liveness. The framing, EOF,
// backpressure and drain cases run against a one-worker rfmix-router too:
// both daemons share one connection loop and must answer alike.
#include "svc/event_loop.hpp"

#ifndef _WIN32

#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "svc/json_parse.hpp"
#include "svc/server.hpp"
#include "transport_fixture.hpp"

namespace rfmix::svc {
namespace {

using svc_test::Client;
using svc_test::Transport;

class EventLoopTest : public svc_test::TransportFixture {
 protected:
  void start(ServerLoop::Options opts = ServerLoop::Options{}, int threads = 4,
             Transport via = Transport::kRfmixd) {
    start_transport(via, opts, threads, /*cache_entries=*/1024, "elt");
  }
};

/// An analysis request that keeps a pool lane busy for a while: a dense AC
/// sweep of an RC ladder. `tag` makes the content (and so the cache key)
/// unique per call site.
std::string slow_request(const std::string& id_json, int tag, double timeout_ms = 0.0,
                         int points = 1200) {
  std::string netlist = "V1 n0 0 DC 0 AC 1\\n";
  for (int i = 0; i < 14; ++i) {
    const std::string a = "n" + std::to_string(i), b = "n" + std::to_string(i + 1);
    netlist += "R" + std::to_string(i) + " " + a + " " + b + " " +
               std::to_string(1000 + tag) + "\\n";
    netlist += "C" + std::to_string(i) + " " + b + " 0 1e-9\\n";
  }
  std::string req = R"({"v":2,"id":)" + id_json + R"(,"kind":"ac")";
  if (timeout_ms > 0.0) req += ",\"timeout_ms\":" + std::to_string(timeout_ms);
  req += R"(,"params":{"netlist":")" + netlist +
         R"(","ac":{"f_start_hz":1e3,"f_stop_hz":1e9,"points":)" +
         std::to_string(points) + R"(,"probe":"n14"}}})";
  return req;
}

TEST_F(EventLoopTest, SingleClientRoundTrip) {
  start();
  Client c;
  ASSERT_TRUE(c.connect_to(path_));
  ASSERT_TRUE(c.send_all("{\"v\":2,\"id\":1,\"kind\":\"ping\"}\n"));
  const auto lines = c.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], R"({"v":2,"id":1,"ok":true,"result":{"pong":true}})");
}

TEST_F(EventLoopTest, EightClientsMixedPrioritiesMatchSerialByteForByte) {
  start();
  constexpr int kClients = 8;
  constexpr int kRequests = 6;

  // Globally unique requests (no cross-client cache interaction), mixed
  // v1/v2, mixed priorities, several kinds.
  std::vector<std::vector<std::string>> reqs(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequests; ++r) {
      const std::string id = "\"c" + std::to_string(c) + "-r" + std::to_string(r) + "\"";
      std::string line;
      switch (r % 4) {
        case 0:
          line = R"({"v":2,"id":)" + id + R"(,"kind":"ping"})";
          break;
        case 1:
          line = R"({"v":2,"id":)" + id + R"(,"kind":"op","priority":)" +
                 std::to_string(c % 3) + R"(,"params":{"netlist":"V1 in 0 DC )" +
                 std::to_string(c + 1) + R"(\nR1 in mid )" +
                 std::to_string(1000 + 100 * c + r) + R"(\nR2 mid 0 4k\n"}})";
          break;
        case 2:  // a version-less v1 request rides along
          line = R"({"id":)" + id + R"(,"kind":"mixer_metric","metric":"gain_db",)" +
                 R"("config":{"f_lo_hz":)" +
                 std::to_string(1.0e9 + 1e6 * c + 1e3 * r) + "}}";
          break;
        case 3:
          line = R"({"v":2,"id":)" + id + R"(,"kind":"mixer_metric","priority":)" +
                 std::to_string(-(c % 2)) + R"(,"params":{"metric":"nf_dsb_db",)" +
                 R"("config":{"f_lo_hz":)" + std::to_string(2.0e9 + 1e6 * c + 1e3 * r) +
                 "}}}";
          break;
      }
      reqs[c].push_back(line);
    }
  }

  // Serial golden: a fresh session with its own cache answers the same
  // lines; globally-unique requests mean flags are cached=false everywhere
  // in both runs, so responses must be byte-identical.
  std::map<std::string, std::string> expected;  // id literal -> response line
  {
    ResultCache golden_cache(1024);
    ServerSession golden(golden_cache, pool_->pool());
    for (int c = 0; c < kClients; ++c)
      for (const std::string& line : reqs[c]) {
        const Response resp = golden.handle_line(line);
        const JsonValue doc = json_parse(resp.line);
        ASSERT_TRUE(doc.find("ok")->as_bool()) << resp.line;
        expected.emplace(doc.find("id")->as_string(), resp.line);
      }
  }

  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      Client client;
      if (!client.connect_to(path_)) return;
      std::string all;
      for (const std::string& line : reqs[c]) all += line + "\n";
      if (!client.send_all(all)) return;
      got[c] = client.read_lines(kRequests);
    });
  }
  for (auto& w : workers) w.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), static_cast<std::size_t>(kRequests)) << "client " << c;
    // Responses may arrive out of order; every id answered exactly once,
    // every byte identical to the serial session.
    std::map<std::string, std::string> by_id;
    for (const std::string& line : got[c]) {
      const JsonValue doc = json_parse(line);
      ASSERT_FALSE(doc.find("id")->is_null()) << line;
      ASSERT_TRUE(by_id.emplace(doc.find("id")->as_string(), line).second)
          << "duplicate response for " << line;
    }
    for (int r = 0; r < kRequests; ++r) {
      const std::string id = "c" + std::to_string(c) + "-r" + std::to_string(r);
      ASSERT_TRUE(by_id.count(id)) << "no response for " << id;
      const auto exp = expected.find(id);
      ASSERT_NE(exp, expected.end());
      EXPECT_EQ(by_id[id], exp->second) << "client " << c << " id " << id;
    }
  }
}

TEST_F(EventLoopTest, PipelinedBurstInOneWriteAndTornWrites) {
  start();
  Client c;
  ASSERT_TRUE(c.connect_to(path_));
  // Many requests in a single write...
  std::string burst;
  for (int i = 0; i < 20; ++i)
    burst += R"({"v":2,"id":)" + std::to_string(i) + R"(,"kind":"ping"})" + "\n";
  ASSERT_TRUE(c.send_all(burst));
  auto lines = c.read_lines(20);
  ASSERT_EQ(lines.size(), 20u);

  // ...and one request torn into single-byte writes.
  const std::string req = R"({"v":2,"id":"torn","kind":"ping"})" "\n";
  for (char ch : req) {
    ASSERT_TRUE(c.send_all(std::string(1, ch)));
    if (ch == ':') std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  lines = c.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], R"({"v":2,"id":"torn","ok":true,"result":{"pong":true}})");
}

TEST_F(EventLoopTest, MalformedLinesNeverKillTheConnection) {
  start();
  Client c;
  ASSERT_TRUE(c.connect_to(path_));
  ASSERT_TRUE(c.send_all("{nope\n42\n[\n{\"v\":9,\"kind\":\"ping\"}\n"
                         "{\"v\":2,\"id\":\"alive\",\"kind\":\"ping\"}\n"));
  const auto lines = c.read_lines(5);
  ASSERT_EQ(lines.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    const JsonValue doc = json_parse(lines[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(doc.find("ok")->as_bool()) << lines[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(lines[4], R"({"v":2,"id":"alive","ok":true,"result":{"pong":true}})");
}

TEST_F(EventLoopTest, OversizedLineAnswersThenCloses) {
  ServerLoop::Options opts;
  opts.max_line_bytes = 4096;
  start(opts);
  Client c;
  ASSERT_TRUE(c.connect_to(path_));
  ASSERT_TRUE(c.send_all(std::string(8192, 'x')));  // no newline, over the cap
  const auto lines = c.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue doc = json_parse(lines[0]);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("code")->as_string(), "parse_error");
  // The server hangs up afterwards: EOF, not a hang.
  char b;
  EXPECT_EQ(::recv(c.fd, &b, 1, 0), 0);
}

TEST_F(EventLoopTest, BackpressureDefersButAnswersEverything) {
  ServerLoop::Options opts;
  opts.max_inflight = 2;  // force POLLIN pauses under the flood
  for (const Transport via : svc_test::kTransports) {
    SCOPED_TRACE(svc_test::transport_name(via));
    start(opts, /*threads=*/3, via);
    Client c;
    ASSERT_TRUE(c.connect_to(path_));
    std::string flood;
    constexpr int kJobs = 12;
    for (int i = 0; i < kJobs; ++i)
      flood += slow_request(std::to_string(i), /*tag=*/i, 0.0, /*points=*/60) + "\n";
    ASSERT_TRUE(c.send_all(flood));
    const auto lines = c.read_lines(kJobs);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(kJobs));
    std::vector<bool> seen(kJobs, false);
    for (const std::string& line : lines) {
      const JsonValue doc = json_parse(line);
      EXPECT_TRUE(doc.find("ok")->as_bool()) << line;
      seen[static_cast<int>(doc.find("id")->as_number())] = true;
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
    TearDown();
  }
}

TEST_F(EventLoopTest, CancelRemovesAQueuedRequest) {
  start(ServerLoop::Options{}, /*threads=*/2);  // one worker: jobs queue up
  Client c;
  ASSERT_TRUE(c.connect_to(path_));
  // A long job saturates the single worker; the target queues behind it;
  // the cancel arrives in the same read burst, so it is processed while
  // the target is still pending.
  std::string burst = slow_request("\"blocker\"", 1) + "\n";
  burst += slow_request("\"target\"", 2) + "\n";
  burst += R"({"v":2,"id":"cxl","kind":"cancel","params":{"target":"target"}})" "\n";
  ASSERT_TRUE(c.send_all(burst));
  const auto lines = c.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  std::map<std::string, JsonValue> by_id;
  for (const std::string& line : lines) {
    JsonValue doc = json_parse(line);
    by_id.emplace(doc.find("id")->as_string(), std::move(doc));
  }
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_TRUE(by_id.at("blocker").find("ok")->as_bool());
  // Exactly-once semantics either way; when the cancel won the race the
  // target must carry the cancelled code.
  const bool cancelled = by_id.at("cxl").find("result")->find("cancelled")->as_bool();
  const JsonValue& target = by_id.at("target");
  if (cancelled) {
    EXPECT_FALSE(target.find("ok")->as_bool());
    EXPECT_EQ(target.find("error")->find("code")->as_string(), "cancelled");
  } else {
    EXPECT_TRUE(target.find("ok")->as_bool());
  }
}

TEST_F(EventLoopTest, DeadlineExpiryAnswersTimeout) {
  start(ServerLoop::Options{}, /*threads=*/2);
  Client c;
  ASSERT_TRUE(c.connect_to(path_));
  std::string burst = slow_request("\"blocker\"", 3) + "\n";
  burst += slow_request("\"late\"", 4, /*timeout_ms=*/1.0) + "\n";
  ASSERT_TRUE(c.send_all(burst));
  const auto lines = c.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  std::map<std::string, JsonValue> by_id;
  for (const std::string& line : lines) {
    JsonValue doc = json_parse(line);
    by_id.emplace(doc.find("id")->as_string(), std::move(doc));
  }
  EXPECT_TRUE(by_id.at("blocker").find("ok")->as_bool());
  const JsonValue& late = by_id.at("late");
  EXPECT_FALSE(late.find("ok")->as_bool());
  EXPECT_EQ(late.find("error")->find("code")->as_string(), "timeout");
}

TEST_F(EventLoopTest, ShutdownDrainsInFlightWork) {
  for (const Transport via : svc_test::kTransports) {
    SCOPED_TRACE(svc_test::transport_name(via));
    start(ServerLoop::Options{}, /*threads=*/3, via);
    Client c;
    ASSERT_TRUE(c.connect_to(path_));
    std::string burst;
    for (int i = 0; i < 4; ++i) burst += slow_request(std::to_string(i), 10 + i) + "\n";
    ASSERT_TRUE(c.send_all(burst));
    // Give the loop a beat to dispatch, then ask for shutdown mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    request_shutdown();
    const auto lines = c.read_lines(4);
    thread_.join();
    // Every dispatched job completed and was flushed before run() returned.
    ASSERT_EQ(lines.size(), 4u) << "shutdown dropped in-flight responses";
    for (const std::string& line : lines) {
      const JsonValue doc = json_parse(line);
      EXPECT_TRUE(doc.find("ok")->as_bool()) << line;
    }
    // And the listener is gone: new connections fail.
    Client late;
    EXPECT_FALSE(late.connect_to(path_));
    TearDown();
  }
}

TEST_F(EventLoopTest, EofWithUnterminatedFinalLineStillAnswers) {
  for (const Transport via : svc_test::kTransports) {
    SCOPED_TRACE(svc_test::transport_name(via));
    start(ServerLoop::Options{}, 4, via);
    Client c;
    ASSERT_TRUE(c.connect_to(path_));
    ASSERT_TRUE(c.send_all(R"({"v":2,"id":"last","kind":"ping"})"));  // no newline
    c.shutdown_write();
    const auto lines = c.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], R"({"v":2,"id":"last","ok":true,"result":{"pong":true}})");
    TearDown();
  }
}

TEST_F(EventLoopTest, ListenReplacesOnlyAStaleSocket) {
  start();  // a live server on path_
  ServerLoop other(*session_);
  std::string err;
  // Another live server's socket is never stolen...
  EXPECT_FALSE(other.listen_unix(path_, &err));
  EXPECT_NE(err.find("another server is listening"), std::string::npos) << err;

  // ...nor is anything that is not a socket removed...
  const std::string file = path_ + ".file";
  const int fd = ::open(file.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0600);
  ASSERT_GE(fd, 0);
  ::close(fd);
  EXPECT_FALSE(other.listen_unix(file, &err));
  EXPECT_NE(err.find("not a socket"), std::string::npos) << err;
  EXPECT_EQ(::access(file.c_str(), F_OK), 0) << "a regular file was removed";
  ::unlink(file.c_str());

  // ...but a socket whose server is gone is replaced.
  const std::string stale = path_ + ".stale";
  {
    ServerLoop dead(*session_);
    ASSERT_TRUE(dead.listen_unix(stale, &err)) << err;
  }  // closed without unlinking, as a crashed server leaves it
  ASSERT_EQ(::access(stale.c_str(), F_OK), 0);
  EXPECT_TRUE(other.listen_unix(stale, &err)) << err;
  Client c;
  EXPECT_TRUE(c.connect_to(stale));
  ::unlink(stale.c_str());
}

TEST_F(EventLoopTest, PeerDisconnectMidResponseIsConnectionCleanupNotDeath) {
  // A client that vanishes with responses still owed must cost exactly its
  // own connection: the pending write hits EPIPE/ECONNRESET (SIGPIPE is
  // suppressed via MSG_NOSIGNAL), the conn is reaped, and unrelated
  // clients are unaffected.
  start();
  {
    Client doomed;
    ASSERT_TRUE(doomed.connect_to(path_));
    std::string burst;
    for (int i = 0; i < 4; ++i) burst += slow_request(std::to_string(i), 70 + i) + "\n";
    ASSERT_TRUE(doomed.send_all(burst));
    // Destructor closes the socket with all four responses unread and the
    // analyses still running.
  }
  // The loop keeps serving: a fresh client gets normal service while the
  // orphaned completions are written into the void and cleaned up.
  Client c;
  ASSERT_TRUE(c.connect_to(path_));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(c.send_all("{\"v\":2,\"id\":7,\"kind\":\"ping\"}\n"));
    const auto lines = c.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], R"({"v":2,"id":7,"ok":true,"result":{"pong":true}})");
  }
}

}  // namespace
}  // namespace rfmix::svc

#endif  // _WIN32
