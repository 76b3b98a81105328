// Benchmark-side tracing: spans recorded around each call into a layer's
// public entry point, kept in memory and written at exit as Chrome
// trace_event JSON (open it in Perfetto or about:tracing). Spans carry a
// parent and, for serving, the request id. A span's self time is its
// duration minus the part of it that its children cover.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span at `start` (monotonic seconds); -1 when disabled.
  int Open(const char* name, int parent, int64_t request, double start);
  void Close(int id, double end);

  struct SelfTime {
    std::string name;
    int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  /// Per span name: spans closed, summed duration, summed self time.
  std::vector<SelfTime> SelfTimes() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChrome(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int parent;
    int64_t request;
    double start;
    double end;
    std::thread::id thread;
  };

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> spans_;
};

/// Times one call. The elapsed time is always measured (the per-layer
/// metrics need it in every run); the span is recorded only when tracing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int parent = -1,
       int64_t request = -1);
  /// A span whose start was fixed earlier (a request's scheduled time).
  Span(Tracer* tracer, const char* name, int parent, int64_t request,
       double start);
  ~Span() { Close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent); returns its duration in seconds.
  double Close();
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  double start_;
  double elapsed_ = -1;
};

}  // namespace perfbench
