#include "harness/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

thread_local std::vector<int> t_open;  // spans open on this thread, innermost last

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                                    0xffffffu);
}

// Length of the union of [a, b) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool have = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (have && a <= cur_b) {
      cur_b = std::max(cur_b, b);
    } else {
      if (have) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      have = true;
    }
  }
  if (have) total += cur_b - cur_a;
  return total;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const char* name, std::uint64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = t_open.empty() ? -1 : t_open.back();
  rec.request = request;
  rec.tid = thread_tag();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(rec));
  }
  t_open.push_back(index);
  // Read the clock last so the bookkeeping above is not charged to the span.
  const double now = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].start_us = now;
  return index;
}

void Tracer::close(int index) {
  const double now = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0_).count();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_us = now;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::chrome_json() const {
  const std::vector<SpanRecord> all = spans();
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.tid, s.start_us,
                  s.end_us - s.start_us, i, s.parent,
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::map<std::string, LayerTime> layer_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = s.end_us - s.start_us;
    LayerTime& lt = out[s.name];
    lt.total_ms += dur * 1e-3;
    lt.self_ms += (dur - covered(children[i], s.start_us, s.end_us)) * 1e-3;
    ++lt.calls;
  }
  return out;
}

double root_ms(const std::vector<SpanRecord>& spans) {
  double total = 0.0;
  for (const SpanRecord& s : spans)
    if (s.parent < 0) total += (s.end_us - s.start_us) * 1e-3;
  return total;
}

}  // namespace perfbench
