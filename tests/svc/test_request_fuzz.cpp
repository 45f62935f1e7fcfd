// Fuzz-style determinism tests for the v2 envelope parser and the socket
// transport's line reassembly: a corpus of valid, malformed, boundary, and
// adversarial request lines is fed through a real ServerLoop socket whole,
// byte-at-a-time, and in seeded random splits — every feed must produce
// responses byte-identical to the serial handle_line oracle. Torn framing
// must be invisible: the transport either delivers the exact same bytes or
// it has a bug. Every feed also runs against a one-worker rfmix-router,
// which shares the connection loop and must answer with the same bytes.
//
// Also pins the serialize_v2_request fixed point the router's replay
// machinery depends on: parse -> serialize -> parse must converge (same
// content key, identical bytes), so a replayed request is the request.
#include <gtest/gtest.h>

#ifndef _WIN32

#include <poll.h>
#include <sys/socket.h>

#include <random>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "svc/event_loop.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "transport_fixture.hpp"

namespace rfmix::svc {
namespace {

using svc_test::Client;
using svc_test::Transport;

std::vector<std::string> corpus() {
  std::vector<std::string> lines;
  // Valid v2 analysis requests (distinct content keys).
  lines.push_back(
      R"({"v":2,"id":1,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out 1000\nR2 out 0 1000\n.end"}})");
  lines.push_back(
      R"({"v":2,"id":"two","kind":"op","params":{"netlist":"V1 in 0 DC 2\nR1 in out 1000\nR2 out 0 2000\n.end"}})");
  lines.push_back(
      R"({"v":2,"id":3,"kind":"ac","priority":5,"params":{"netlist":"V1 in 0 DC 0 AC 1\nR1 in out 1000\nC1 out 0 1e-9\n.end","ac":{"f_start_hz":10.0,"f_stop_hz":1e6,"points":16,"log_scale":true,"probe":"out"}}})");
  // Repeat of an earlier key: exercises the cached-flag path in order.
  lines.push_back(
      R"({"v":2,"id":4,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out 1000\nR2 out 0 1000\n.end"}})");
  // Control requests, v2 and v1.
  lines.push_back(R"({"v":2,"id":5,"kind":"ping"})");
  lines.push_back(R"({"id":6,"kind":"ping"})");
  lines.push_back(R"({"v":2,"id":7,"kind":"cancel","params":{"target":1}})");
  // Malformed JSON of assorted shapes.
  lines.push_back("{nope");
  lines.push_back(R"({"v":2,"id":8,)");
  lines.push_back("[1,2,3]");
  lines.push_back("\"just a string\"");
  lines.push_back("{}");
  // Envelope violations: unknown field, unknown kind, bad version, bad
  // params, wrong types.
  lines.push_back(R"({"v":2,"id":9,"kind":"ping","bogus":1})");
  lines.push_back(R"({"v":2,"id":10,"kind":"frobnicate"})");
  lines.push_back(R"({"v":3,"id":11,"kind":"ping"})");
  lines.push_back(R"({"v":2,"id":12,"kind":"op","params":{"netlist":42}})");
  lines.push_back(R"({"v":2,"id":13,"kind":"op"})");
  lines.push_back(R"({"v":2,"id":{},"kind":"ping"})");
  lines.push_back(R"({"v":2,"id":14,"kind":"ac","params":{"netlist":"x","ac":{"f_start_hz":-1}}})");
  // Escapes and unicode in strings that land in responses.
  lines.push_back(R"({"v":2,"id":"q\"uote\\\n","kind":"ping"})");
  lines.push_back(R"({"v":2,"id":"é€","kind":"ping"})");
  // Deep nesting and a long-but-legal line.
  lines.push_back(R"({"v":2,"id":15,"kind":"op","params":{"netlist":")" +
                  std::string(2000, 'x') + R"("}})");
  return lines;
}

/// Serial oracle: every corpus line through a fresh session, in order.
std::vector<std::string> oracle_responses(const std::vector<std::string>& lines) {
  runtime::ScopedPool pool(2);
  ResultCache cache(256);
  ServerSession session(cache, pool.pool());
  std::vector<std::string> out;
  for (const auto& line : lines) out.push_back(session.handle_line(line).line);
  return out;
}

class RequestFuzzTest : public svc_test::TransportFixture {
 protected:
  void start(ServerLoop::Options opts = ServerLoop::Options{},
             Transport via = Transport::kRfmixd) {
    // max_inflight=1 serializes analysis completion per connection, so
    // response order equals request order and whole-stream comparison is
    // exact.
    opts.max_inflight = 1;
    start_transport(via, opts, /*threads=*/2, /*cache_entries=*/256, "fuzz");
  }
};

TEST_F(RequestFuzzTest, WholeLineFeedMatchesOracle) {
  const auto lines = corpus();
  const auto expected = oracle_responses(lines);
  for (const Transport via : svc_test::kTransports) {
    SCOPED_TRACE(svc_test::transport_name(via));
    start(ServerLoop::Options{}, via);
    Client c;
    ASSERT_TRUE(c.connect_to(path_));
    std::string stream;
    for (const auto& line : lines) stream += line + "\n";
    ASSERT_TRUE(c.send_all(stream));
    const auto got = c.read_lines(lines.size());
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(got[i], expected[i]) << i;
    TearDown();
  }
}

TEST_F(RequestFuzzTest, ByteAtATimeFeedIsByteIdenticalToWholeLines) {
  const auto lines = corpus();
  const auto expected = oracle_responses(lines);
  for (const Transport via : svc_test::kTransports) {
    SCOPED_TRACE(svc_test::transport_name(via));
    start(ServerLoop::Options{}, via);
    Client c;
    ASSERT_TRUE(c.connect_to(path_));
    std::string stream;
    for (const auto& line : lines) stream += line + "\n";
    for (const char ch : stream) ASSERT_TRUE(c.send_all(std::string(1, ch)));
    const auto got = c.read_lines(lines.size());
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(got[i], expected[i]) << i;
    TearDown();
  }
}

TEST_F(RequestFuzzTest, SeededRandomSplitsAreByteIdenticalToWholeLines) {
  const auto lines = corpus();
  const auto expected = oracle_responses(lines);
  std::string stream;
  for (const auto& line : lines) stream += line + "\n";

  for (const Transport via : svc_test::kTransports) {
    SCOPED_TRACE(svc_test::transport_name(via));
    for (const std::uint32_t seed : {1u, 7u, 1234u}) {
      start(ServerLoop::Options{}, via);
      std::mt19937 rng(seed);
      std::uniform_int_distribution<std::size_t> chunk(1, 23);
      Client c;
      ASSERT_TRUE(c.connect_to(path_));
      std::size_t off = 0;
      while (off < stream.size()) {
        const std::size_t n = std::min(chunk(rng), stream.size() - off);
        ASSERT_TRUE(c.send_all(stream.substr(off, n)));
        off += n;
      }
      const auto got = c.read_lines(lines.size());
      ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
      for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " line " << i;
      TearDown();
    }
  }
}

TEST_F(RequestFuzzTest, TwoClientsInterleavedTornFeeds) {
  // Two connections, disjoint key sets, bytes drip-fed alternately: per-
  // connection streams must still match the per-half oracles exactly.
  std::vector<std::string> half_a, half_b;
  for (int i = 0; i < 6; ++i) {
    half_a.push_back(
        R"({"v":2,"id":)" + std::to_string(i) +
        R"(,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out )" +
        std::to_string(1100 + i) + R"(\nR2 out 0 1000\n.end"}})");
    half_b.push_back(
        R"({"v":2,"id":)" + std::to_string(100 + i) +
        R"(,"kind":"op","params":{"netlist":"V1 in 0 DC 1\nR1 in out )" +
        std::to_string(2100 + i) + R"(\nR2 out 0 1000\n.end"}})");
  }
  const auto expected_a = oracle_responses(half_a);
  const auto expected_b = oracle_responses(half_b);

  for (const Transport via : svc_test::kTransports) {
    SCOPED_TRACE(svc_test::transport_name(via));
    start(ServerLoop::Options{}, via);
    Client a, b;
    ASSERT_TRUE(a.connect_to(path_));
    ASSERT_TRUE(b.connect_to(path_));
    std::string stream_a, stream_b;
    for (const auto& l : half_a) stream_a += l + "\n";
    for (const auto& l : half_b) stream_b += l + "\n";
    std::mt19937 rng(42);
    std::uniform_int_distribution<std::size_t> chunk(1, 9);
    std::size_t off_a = 0, off_b = 0;
    while (off_a < stream_a.size() || off_b < stream_b.size()) {
      if (off_a < stream_a.size()) {
        const std::size_t n = std::min(chunk(rng), stream_a.size() - off_a);
        ASSERT_TRUE(a.send_all(stream_a.substr(off_a, n)));
        off_a += n;
      }
      if (off_b < stream_b.size()) {
        const std::size_t n = std::min(chunk(rng), stream_b.size() - off_b);
        ASSERT_TRUE(b.send_all(stream_b.substr(off_b, n)));
        off_b += n;
      }
    }
    const auto got_a = a.read_lines(half_a.size());
    const auto got_b = b.read_lines(half_b.size());
    ASSERT_EQ(got_a.size(), expected_a.size());
    ASSERT_EQ(got_b.size(), expected_b.size());
    for (std::size_t i = 0; i < expected_a.size(); ++i) EXPECT_EQ(got_a[i], expected_a[i]);
    for (std::size_t i = 0; i < expected_b.size(); ++i) EXPECT_EQ(got_b[i], expected_b[i]);
    TearDown();
  }
}

TEST_F(RequestFuzzTest, OversizedLineAnswersStructuredErrorAndCloses) {
  ServerLoop::Options opts;
  opts.max_line_bytes = 4096;
  for (const Transport via : svc_test::kTransports) {
    SCOPED_TRACE(svc_test::transport_name(via));
    start(opts, via);
    Client c;
    ASSERT_TRUE(c.connect_to(path_));
    // 8 KiB with no newline: unresynchronizable garbage.
    ASSERT_TRUE(c.send_all(std::string(8192, 'a')));
    const auto lines = c.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"code\":\"parse_error\""), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("exceeds size limit"), std::string::npos) << lines[0];
    // The server must hang up (EOF), not wait for more bytes.
    char byte;
    pollfd p{c.fd, POLLIN, 0};
    ASSERT_GT(::poll(&p, 1, 30000), 0);
    EXPECT_EQ(::recv(c.fd, &byte, 1, 0), 0);
    TearDown();
  }
}

// ---------------------------------------------------------------------------
// serialize_v2_request: the replay fixed point.
// ---------------------------------------------------------------------------

TEST(SerializeV2Request, RoundTripsToIdenticalBytesAndKey) {
  std::vector<std::string> valid;
  for (const auto& line : corpus()) {
    ParsedRequest req;
    if (ServerSession::parse_line(line, &req)) continue;  // skip invalid
    if (!is_analysis_kind(req.kind)) continue;
    try {
      (void)request_key(req.request);  // skip un-keyable netlists: those
    } catch (const std::exception&) {  // answer exec_failed, never replay
      continue;
    }
    valid.push_back(line);
  }
  ASSERT_GE(valid.size(), 3u);
  for (const auto& line : valid) {
    ParsedRequest req;
    ASSERT_FALSE(ServerSession::parse_line(line, &req));
    const std::string once = serialize_v2_request(req, "42");
    ParsedRequest again;
    ASSERT_FALSE(ServerSession::parse_line(once, &again)) << once;
    EXPECT_EQ(again.id_json, "42");
    EXPECT_EQ(again.kind, req.kind);
    EXPECT_EQ(again.priority, req.priority);
    // Same content key (replay idempotence)...
    EXPECT_EQ(request_key(again.request).hex(), request_key(req.request).hex());
    // ...and serialization is a fixed point (replay of a replay is stable).
    EXPECT_EQ(serialize_v2_request(again, "42"), once) << line;
  }
}

TEST(SerializeV2Request, PreservesTimeoutAndPriority) {
  const std::string line =
      R"({"v":2,"id":1,"kind":"op","priority":-3,"timeout_ms":1500,"params":{"netlist":"V1 a 0 DC 1\nR1 a 0 50\n.end"}})";
  ParsedRequest req;
  ASSERT_FALSE(ServerSession::parse_line(line, &req));
  const std::string out = serialize_v2_request(req, "\"t\"");
  ParsedRequest again;
  ASSERT_FALSE(ServerSession::parse_line(out, &again)) << out;
  EXPECT_EQ(again.priority, -3);
  EXPECT_DOUBLE_EQ(again.timeout_ms, 1500.0);
  EXPECT_EQ(request_key(again.request).hex(), request_key(req.request).hex());
}

}  // namespace
}  // namespace rfmix::svc

#endif  // _WIN32
