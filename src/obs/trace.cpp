#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace rmsyn::obs {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<bool> Tracer::enabled_{false};

/// Single-producer span buffer: the owning thread writes events[count] and
/// publishes with a release store of count; snapshot() reads count with
/// acquire and copies that prefix. `depth` is owner-thread-only state.
struct Tracer::ThreadLog {
  int tid = 0;
  std::atomic<uint32_t> count{0};
  std::atomic<uint64_t> dropped{0};
  uint32_t depth = 0;
  std::vector<SpanEvent> events;
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  uint64_t expected = 0;
  origin_ns_.compare_exchange_strong(expected, now_ns(),
                                     std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  // Keep the logs allocated: exited-and-replaced threads may still hold
  // thread_local pointers into them. Only the contents are discarded.
  for (auto& log : logs_) {
    log->count.store(0, std::memory_order_relaxed);
    log->dropped.store(0, std::memory_order_relaxed);
  }
  origin_ns_.store(now_ns(), std::memory_order_relaxed);
}

Tracer::ThreadLog* Tracer::log_for_this_thread() {
  thread_local ThreadLog* tl = nullptr;
  if (tl == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    tl = logs_.back().get();
    tl->tid = static_cast<int>(logs_.size());
    tl->events.resize(kThreadCapacity);
  }
  return tl;
}

void Span::open(const char* name) {
  std::strncpy(name_, name, sizeof name_ - 1);
  name_[sizeof name_ - 1] = '\0';
  trace_ = Tracer::enabled();
  prof_ = Profiler::enabled();
  if (trace_) ++Tracer::instance().log_for_this_thread()->depth;
  if (prof_) Profiler::instance().frame_enter(name_);
  open_ = true;
  start_ns_ = now_ns(); // last: exclude our own bookkeeping from the span
}

void Span::close(uint64_t end_ns) {
  const uint64_t dur = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  if (prof_) Profiler::instance().frame_exit(dur);
  if (!trace_) return;
  Tracer::ThreadLog* log = Tracer::instance().log_for_this_thread();
  --log->depth;
  const uint32_t n = log->count.load(std::memory_order_relaxed);
  if (n >= Tracer::kThreadCapacity) {
    log->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanEvent& e = log->events[n];
  std::memcpy(e.name, name_, sizeof e.name);
  e.start_ns = start_ns_;
  e.dur_ns = dur;
  e.depth = static_cast<uint16_t>(log->depth);
  log->count.store(n + 1, std::memory_order_release);
}

Tracer::Snapshot Tracer::snapshot() const {
  Snapshot snap;
  snap.origin_ns = origin_ns_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  snap.threads.reserve(logs_.size());
  for (const auto& log : logs_) {
    const uint32_t n = log->count.load(std::memory_order_acquire);
    if (n == 0 && log->dropped.load(std::memory_order_relaxed) == 0) continue;
    ThreadTrace t;
    t.tid = log->tid;
    t.dropped = log->dropped.load(std::memory_order_relaxed);
    t.events.assign(log->events.begin(), log->events.begin() + n);
    snap.threads.push_back(std::move(t));
  }
  return snap;
}

Tracer::Summary Tracer::summary() const {
  const Snapshot snap = snapshot();
  Summary s;
  uint64_t first = UINT64_MAX, last = 0;
  for (const ThreadTrace& t : snap.threads) {
    if (!t.events.empty() || t.dropped > 0) ++s.threads;
    s.dropped += t.dropped;
    for (const SpanEvent& e : t.events) {
      ++s.events;
      if (e.depth == 0) s.span_seconds += 1e-9 * static_cast<double>(e.dur_ns);
      first = std::min(first, e.start_ns);
      last = std::max(last, e.start_ns + e.dur_ns);
    }
  }
  if (last > first) s.wall_seconds = 1e-9 * static_cast<double>(last - first);
  return s;
}

std::string Tracer::chrome_trace_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const ThreadTrace& t : snap.threads) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"rmsyn-%d\"}}",
                  first ? "" : ",", t.tid, t.tid);
    out += buf;
    first = false;
    for (const SpanEvent& e : t.events) {
      // Span names are stage identifiers and "flow:<circuit>" labels;
      // escape conservatively anyway so arbitrary circuit names stay valid.
      std::string name;
      for (const char* p = e.name; *p != '\0'; ++p) {
        if (*p == '"' || *p == '\\') name += '\\';
        if (static_cast<unsigned char>(*p) >= 0x20) name += *p;
      }
      const double ts =
          1e-3 * static_cast<double>(e.start_ns - snap.origin_ns);
      const double dur = 1e-3 * static_cast<double>(e.dur_ns);
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%s\",\"cat\":\"rmsyn\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                    name.c_str(), t.tid, ts, dur);
      out += buf;
    }
  }
  out += "\n]}\n";
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("trace: cannot write " + path);
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = n == json.size() && std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("trace: short write to " + path);
}

} // namespace rmsyn::obs
