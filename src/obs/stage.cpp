#include "obs/stage.hpp"

#include <algorithm>
#include <cstdio>

#include "util/progress.hpp"

namespace rmsyn {

void StageBreakdown::add(std::string_view name, double seconds,
                         uint64_t calls) {
  for (Entry& e : entries) {
    if (e.name == name) {
      e.seconds += seconds;
      e.calls += calls;
      return;
    }
  }
  entries.push_back(Entry{std::string(name), seconds, calls});
}

void StageBreakdown::accumulate(const StageBreakdown& o) {
  for (const Entry& e : o.entries) add(e.name, e.seconds, e.calls);
}

const StageBreakdown::Entry* StageBreakdown::find(std::string_view name) const {
  for (const Entry& e : entries)
    if (e.name == name) return &e;
  return nullptr;
}

double StageBreakdown::seconds_for(std::string_view name) const {
  const Entry* e = find(name);
  return e == nullptr ? 0.0 : e->seconds;
}

double StageBreakdown::total_seconds() const {
  double s = 0.0;
  for (const Entry& e : entries) s += e.seconds;
  return s;
}

std::string StageBreakdown::to_string() const {
  std::vector<const Entry*> order;
  order.reserve(entries.size());
  for (const Entry& e : entries) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const Entry* a, const Entry* b) {
                     return a->seconds > b->seconds;
                   });
  std::string out = "stages:";
  char buf[128];
  for (const Entry* e : order) {
    std::snprintf(buf, sizeof buf, " %s %.3fs (%llu)", e->name.c_str(),
                  e->seconds, static_cast<unsigned long long>(e->calls));
    out += buf;
  }
  out += "\n";
  return out;
}

namespace obs {

ScopedStage::ScopedStage(ResourceGovernor* gov, StageBreakdown* sb,
                         const char* name)
    : gov_(gov), sb_(sb), name_(name), span_(name) {
  if (gov_ != nullptr) outer_ = gov_->enter_stage(name);
  if (ProgressBoard::active()) ProgressBoard::instance().set_stage(name);
  start_ns_ = span_.start_ns() != 0 ? span_.start_ns() : now_ns();
}

ScopedStage::~ScopedStage() {
  const uint64_t end_ns = now_ns();
  span_.close_at(end_ns);
  if (sb_ != nullptr)
    sb_->add(name_, 1e-9 * static_cast<double>(end_ns - start_ns_));
  if (gov_ != nullptr) gov_->restore_stage(outer_);
}

} // namespace obs
} // namespace rmsyn
