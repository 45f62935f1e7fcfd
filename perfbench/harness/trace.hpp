// Spans recorded by the harness around its calls into each layer.
//
// A span holds its name, start, end, parent span and request id. Spans stay
// in memory; at exit they are written as a Chrome trace and folded into a
// per-layer self-time table (a span's duration minus the part of it that
// its child spans cover). When tracing is off a Span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;            // index of the enclosing span, -1 for roots
  std::uint64_t request = 0;  // request id (0 when not request-scoped)
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span on the calling thread; its parent is the innermost span
  /// still open on this thread. Returns the span index.
  int open(const char* name, std::uint64_t request);
  void close(int index);

  std::vector<SpanRecord> spans() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  std::string chrome_json() const;

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span; inert when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : index_(Tracer::get().enabled() ? Tracer::get().open(name, request) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::get().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

struct LayerTime {
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::size_t calls = 0;
};

/// Self and total time per span name.
std::map<std::string, LayerTime> layer_times(const std::vector<SpanRecord>& spans);

/// Sum of root-span durations, in ms (the traced wall time).
double root_ms(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
