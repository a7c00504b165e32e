// Span tracer — the "where does the time go" half of the obs subsystem.
//
// RMSYN_SPAN("fprm-search") opens an RAII scope that, when tracing is
// enabled, records one completed span (name, start, duration, nesting
// depth) into a lock-free thread-local buffer: the recording path is a
// clock read plus a plain store published with one release-store of the
// buffer index — no mutex, no allocation, no cross-thread traffic. Buffers
// from every thread that ever recorded (pool workers included) are merged
// at export time into a single Chrome trace-event JSON that chrome://tracing
// and Perfetto load directly; `rmsyn_cli ... --trace out.json` is the
// user-facing entry point.
//
// Cost model. Tracing is OFF by default: a disabled RMSYN_SPAN is one
// relaxed atomic load and a branch (bench_obs measures it and gates the
// extrapolated flow overhead at < 1%, BENCH_obs.json). Compiling with
// -DRMSYN_NO_OBS removes the sites entirely. Enabled spans cost two clock
// reads and one 64-byte store; per-thread buffers are bounded
// (kThreadCapacity) and overflow by *dropping* new spans, counted in
// `dropped`, never by blocking or reallocating.
//
// Lifecycle. enable()/reset() are run-scoped operations for the main
// thread between runs; they must not race recording threads. Thread
// buffers are owned by the singleton and survive their thread, so pool
// workers that exited before export still contribute their spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profile.hpp"

namespace rmsyn::obs {

/// Monotonic nanoseconds (steady clock), shared by tracer and stage timers.
uint64_t now_ns();

/// One completed span. `name` is an owned, truncated copy so callers may
/// pass transient strings (e.g. "flow:" + circuit).
struct SpanEvent {
  char name[48] = {0};
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint16_t depth = 0; ///< nesting depth on the recording thread (0 = top)
};

class Tracer {
public:
  static Tracer& instance();

  /// Turns recording on (idempotent). The first enable stamps the trace
  /// origin; ts values in the export are relative to it.
  void enable();
  void disable();
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded event and re-stamps the origin. Must not run
  /// concurrently with recording threads (call between runs).
  void reset();

  struct ThreadTrace {
    int tid = 0;
    uint64_t dropped = 0;
    std::vector<SpanEvent> events;
  };
  struct Snapshot {
    uint64_t origin_ns = 0;
    std::vector<ThreadTrace> threads;
  };
  /// Consistent per-thread prefixes of everything recorded so far.
  Snapshot snapshot() const;

  /// Roll-up for run reports (the `trace` section of the report schema).
  struct Summary {
    uint64_t events = 0;
    uint64_t dropped = 0;
    int threads = 0;        ///< threads that recorded at least one span
    double span_seconds = 0.0; ///< sum of top-level (depth 0) durations
    double wall_seconds = 0.0; ///< last span end - first span start
  };
  Summary summary() const;

  /// Chrome trace-event JSON ("X" complete events + thread-name metadata);
  /// loadable by chrome://tracing and Perfetto.
  std::string chrome_trace_json() const;
  /// Writes chrome_trace_json() to `path`; throws std::runtime_error on I/O
  /// failure.
  void write_chrome_trace(const std::string& path) const;

  /// Per-thread span capacity; further spans are dropped (and counted).
  static constexpr std::size_t kThreadCapacity = std::size_t{1} << 15;

private:
  friend class Span;
  Tracer() = default;

  struct ThreadLog;
  ThreadLog* log_for_this_thread();

  static std::atomic<bool> enabled_;
  mutable std::mutex mu_; ///< guards the thread-log registry only
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::atomic<uint64_t> origin_ns_{0};
};

/// RAII span; prefer the RMSYN_SPAN macro, which compiles out under
/// -DRMSYN_NO_OBS. The same site feeds both consumers: the tracer's flat
/// event log and the profiler's attribution tree, each gated by the flag
/// state at open time. A span that opened while a consumer was enabled
/// records at close even if the flag flipped meanwhile (the buffers
/// outlive the flip; reset() is what discards them).
class Span {
public:
  explicit Span(const char* name) {
    if (Tracer::enabled() || Profiler::enabled()) open(name);
  }
  explicit Span(const std::string& name) : Span(name.c_str()) {}
  ~Span() {
    if (open_) close(now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The clock reading the span started at; 0 when no consumer captured
  /// it (then nothing is recorded and the caller keeps its own clock).
  uint64_t start_ns() const { return start_ns_; }
  /// Closes the span at a clock reading the caller already took, so a
  /// scope that also times itself (ScopedStage) records one duration.
  void close_at(uint64_t end_ns) {
    if (open_) close(end_ns);
    open_ = false;
  }

private:
  void open(const char* name);
  void close(uint64_t end_ns);

  char name_[48] = {0};
  uint64_t start_ns_ = 0;
  bool open_ = false;  ///< a consumer captured this span at open
  bool trace_ = false; ///< tracing was on at open: record a SpanEvent
  bool prof_ = false;  ///< profiling was on at open: a frame is on the stack
};

} // namespace rmsyn::obs

#ifndef RMSYN_NO_OBS
#define RMSYN_OBS_CONCAT_IMPL(a, b) a##b
#define RMSYN_OBS_CONCAT(a, b) RMSYN_OBS_CONCAT_IMPL(a, b)
/// Opens a trace span covering the rest of the enclosing scope.
#define RMSYN_SPAN(name) \
  ::rmsyn::obs::Span RMSYN_OBS_CONCAT(rmsyn_obs_span_, __LINE__)(name)
#else
#define RMSYN_SPAN(name) static_cast<void>(0)
#endif
