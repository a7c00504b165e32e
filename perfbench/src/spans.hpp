// Span recorder owned by the benchmark. Spans are opened around calls into
// the library's public functions from the benchmark's own thread, carry the
// circuit they work on as the request id, nest by scope, and are kept in
// memory until the run ends. When disabled, opening a span reads no clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string request; ///< circuit name, shared by all spans of one row
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1; ///< index of the enclosing span, -1 at top level
  double seconds() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  class Scope {
  public:
    Scope(Tracer* t, const char* name, const std::string& request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_; ///< null when tracing is off
    int index_ = -1;
  };

  /// Opens a span closed when the returned scope ends.
  Scope span(const char* name, const std::string& request) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover (children of one thread never overlap).
  std::map<std::string, double> self_seconds() const;

  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Writes the spans as a Chrome trace-event JSON file (viewable in
  /// chrome://tracing or Perfetto). Returns false when the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

uint64_t now_ns();

} // namespace perfbench
