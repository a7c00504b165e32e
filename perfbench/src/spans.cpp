#include "spans.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Scope::Scope(Tracer* t, const char* name, const std::string& request)
    : tracer_(t) {
  if (tracer_ == nullptr) return;
  SpanRecord rec;
  rec.name = name;
  rec.request = request;
  rec.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(rec));
  tracer_->open_.push_back(index_);
  tracer_->spans_[static_cast<std::size_t>(index_)].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].seconds();
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name) out.push_back(s.seconds());
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": "
                 "\"%s\", \"parent\": %d}}%s\n",
                 s.name.c_str(), 1e-3 * static_cast<double>(s.start_ns - t0),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                 s.request.c_str(), s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

} // namespace perfbench
