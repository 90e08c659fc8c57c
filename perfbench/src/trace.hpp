// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into the modules' public functions
// (never inside the program) and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans of one request, built by one thread.
class RequestTrace {
 public:
  explicit RequestTrace(std::uint64_t request) : request_(request) {}

  /// Opens a span and returns its id.
  int begin(std::string name, int parent = -1);
  void end(int id);
  /// Records an already-timed span.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1);

  std::uint64_t request() const { return request_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t request_;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(RequestTrace& trace, std::string name, int parent = -1)
      : trace_(trace), id_(trace.begin(std::move(name), parent)) {}
  ~SpanScope() { trace_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  RequestTrace& trace_;
  int id_;
};

/// Thread-safe collection of finished request traces.
class Tracer {
 public:
  void add(const RequestTrace& trace);
  std::vector<Span> spans() const;
  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
