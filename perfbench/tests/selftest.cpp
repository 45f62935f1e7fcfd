// Tests of the benchmark harness itself: the percentile / sample-count
// rule, seed -> schedule determinism, backlog detection for the open-loop
// steps on synthetic latency traces, and span self-time accounting.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/loadgen.hpp"
#include "harness/stats.hpp"
#include "harness/trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void percentile_rule() {
  // A percentile is reported only with at least ten samples beyond it.
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(samples_beyond(999, 0.99) == 9);
  CHECK(tail_quantile(19) == 0.0);
  CHECK(tail_quantile(20) == 0.5);
  CHECK(tail_quantile(99) == 0.5);
  CHECK(tail_quantile(100) == 0.9);
  CHECK(tail_quantile(999) == 0.9);
  CHECK(tail_quantile(1000) == 0.99);
  CHECK(tail_quantile(10000) == 0.999);

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(quantile(v, 0.5) == 500);
  CHECK(quantile(v, 0.99) == 990);
  const Summary s = summarize(v);
  CHECK(s.n == 1000 && s.median == 500 && s.tail_q == 0.99 && s.tail == 990 && s.max == 1000);

  // Too few samples for any tail: the summary says so and keeps the max.
  const Summary few = summarize({3, 1, 2});
  CHECK(few.n == 3 && few.median == 2 && few.tail_q == 0.0 && few.tail == 3);
  CHECK(describe(few, "ms").find("too few for a tail") != std::string::npos);
  CHECK(describe(s, "ms").find("p99 990 ms (n=1000)") != std::string::npos);
}

void schedule_determinism() {
  StreamSpec spec;
  spec.seed = 42;
  spec.stream = 3;
  spec.count = 5000;
  spec.rate_rps = 2000.0;
  const std::vector<Planned> a = make_stream(spec);
  const std::vector<Planned> b = make_stream(spec);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = request_line(a[i], i) == request_line(b[i], i) && a[i].due_s == b[i].due_s &&
           a[i].repeat == b[i].repeat;
  CHECK(same);

  spec.seed = 43;
  const std::vector<Planned> c = make_stream(spec);
  CHECK(request_line(a[0], 0) != request_line(c[0], 0));
  CHECK(a[0].due_s != c[0].due_s);

  // Arrivals: increasing due times at the offered rate; about half repeats.
  bool increasing = true;
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_s <= a[i - 1].due_s) increasing = false;
    repeats += a[i].repeat;
  }
  CHECK(increasing);
  const double rate = static_cast<double>(a.size()) / a.back().due_s;
  CHECK(std::abs(rate - 2000.0) < 100.0);
  CHECK(repeats > 2300 && repeats < 2700);

  // A repeat carries exactly the bytes of an earlier distinct request.
  bool repeats_match = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].repeat) continue;
    bool found = false;
    for (std::size_t j = 0; j < i && !found; ++j)
      found = !a[j].repeat && a[j].key_index == a[i].key_index && a[j].body == a[i].body;
    repeats_match = repeats_match && found;
  }
  CHECK(repeats_match);

  // Different streams of one seed never share a key.
  spec.seed = 42;
  spec.stream = 4;
  const std::vector<Planned> d = make_stream(spec);
  bool disjoint = true;
  for (std::size_t i = 0; i < 200; ++i)
    for (std::size_t j = 0; j < 200; ++j) disjoint = disjoint && a[i].body != d[j].body;
  CHECK(disjoint);

  // Closed-loop streams have no schedule.
  spec.rate_rps = 0.0;
  spec.count = 10;
  for (const Planned& p : make_stream(spec)) CHECK(p.due_s == 0.0);
}

// Completion times of a single FIFO server with a fixed service time.
std::vector<double> fifo(const std::vector<double>& due, double service_s, double stall_at = -1,
                         double stall_s = 0) {
  std::vector<double> done;
  double free_at = 0.0;
  for (const double t : due) {
    double start = std::max(t, free_at);
    if (stall_at >= 0 && start >= stall_at && start < stall_at + stall_s)
      start = stall_at + stall_s;
    free_at = start + service_s;
    done.push_back(free_at);
  }
  return done;
}

void backlog_detection() {
  std::vector<double> due;
  for (int i = 0; i < 2000; ++i) due.push_back(i * 1e-3);  // 1000 req/s for 2 s

  // Inside capacity: no backlog.
  const StepVerdict ok = judge_step(due, fifo(due, 0.5e-3), 1000.0, 50.0);
  CHECK(!ok.growing);
  CHECK(ok.backlog_end <= 1);

  // Overloaded (capacity 800 req/s): the backlog grows linearly.
  const StepVerdict over = judge_step(due, fifo(due, 1.25e-3), 1000.0, 50.0);
  CHECK(over.growing);
  CHECK(over.backlog_end > over.backlog_mid);
  CHECK(over.backlog_end > 300);

  // Slightly over capacity (950 req/s): still growing, by less.
  CHECK(judge_step(due, fifo(due, 1.0 / 950.0), 1000.0, 50.0).growing);

  // One 30 ms stall mid-step, then recovery: the backlog spikes but is not
  // growing when the step ends, even against a 10 ms limit.
  const std::vector<double> stalled = fifo(due, 0.5e-3, 1.0, 0.03);
  CHECK(backlog_at(due, stalled, 1.02) > 15);
  CHECK(!judge_step(due, stalled, 1000.0, 10.0).growing);

  // A request that never completed stays outstanding.
  std::vector<double> lost = fifo(due, 0.5e-3);
  lost[100] = -1.0;
  CHECK(backlog_at(due, lost, 1.9007) == 1);
}

void self_time() {
  std::vector<SpanRecord> spans(4);
  spans[0] = {"root", 0, 100, -1, 0, 1};
  spans[1] = {"a", 10, 40, 0, 7, 1};
  spans[2] = {"b", 30, 60, 0, 7, 1};  // overlaps a: covered union is 10..60
  spans[3] = {"c", 15, 20, 1, 7, 1};
  const auto t = layer_times(spans);
  CHECK(std::abs(t.at("root").self_ms - 0.050) < 1e-12);
  CHECK(std::abs(t.at("a").self_ms - 0.025) < 1e-12);
  CHECK(std::abs(t.at("b").total_ms - 0.030) < 1e-12);
  CHECK(std::abs(root_ms(spans) - 0.1) < 1e-12);
}

}  // namespace

int main() {
  percentile_rule();
  schedule_determinism();
  backlog_detection();
  self_time();
  std::printf("perfbench self-test: %s (%d failures)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
