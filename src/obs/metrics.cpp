#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

// Struct definition only: absorb_sched reads plain fields, so rmsyn_obs
// needs no link-time dependency on the sched library — the dependency
// arrow stays obs <- {sched, flow}.
#include "sched/pool.hpp"

namespace rmsyn::obs {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

// --- log-spaced histogram buckets --------------------------------------------

int HistogramBuckets::bucket_for(double v) {
  if (!(v >= kMinBound)) return 0; // negatives, zero, NaN -> underflow
  const int i =
      1 + static_cast<int>(std::floor(std::log10(v / kMinBound) *
                                      static_cast<double>(kPerDecade)));
  return i < 1 ? 1 : (i >= kCount ? kCount - 1 : i);
}

double HistogramBuckets::lower(int i) {
  if (i <= 0) return 0.0;
  return kMinBound * std::pow(10.0, static_cast<double>(i - 1) /
                                        static_cast<double>(kPerDecade));
}

double HistogramBuckets::upper(int i) {
  if (i >= kCount - 1) return std::numeric_limits<double>::infinity();
  return lower(i + 1);
}

void MetricValue::observe_value(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum += v;
  if (buckets.empty()) buckets.assign(HistogramBuckets::kCount, 0);
  ++buckets[static_cast<std::size_t>(HistogramBuckets::bucket_for(v))];
}

void MetricValue::merge_histogram(const MetricValue& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  count += o.count;
  sum += o.sum;
  if (o.buckets.empty()) return;
  if (buckets.empty()) buckets.assign(HistogramBuckets::kCount, 0);
  for (std::size_t i = 0; i < buckets.size() && i < o.buckets.size(); ++i)
    buckets[i] += o.buckets[i];
}

double MetricValue::percentile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the requested observation, 1-based (nearest-rank definition).
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  const uint64_t want = rank == 0 ? 1 : rank;
  uint64_t seen = 0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    const uint64_t in_bucket = buckets[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (seen + in_bucket < want) {
      seen += in_bucket;
      continue;
    }
    // Log-interpolate inside the bucket by the fraction of its
    // observations below the requested rank, clamped to [min, max] so a
    // single-valued histogram answers exactly.
    double lo = HistogramBuckets::lower(i);
    double hi = HistogramBuckets::upper(i);
    if (lo < min) lo = min;
    if (!(hi < max)) hi = max; // also catches the +inf overflow bound
    if (!(hi > lo)) return lo;
    const double frac = static_cast<double>(want - seen) /
                        static_cast<double>(in_bucket);
    // Linear fallback when the bucket floor is 0 (underflow bucket).
    if (!(lo > 0.0)) return lo + frac * (hi - lo);
    return lo * std::pow(hi / lo, frac);
  }
  return max;
}

void MetricsRegistry::add(std::string_view name, uint64_t delta) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    MetricValue v;
    v.kind = MetricKind::Counter;
    v.count = delta;
    metrics_.emplace(std::string(name), v);
    return;
  }
  it->second.count += delta;
}

void MetricsRegistry::set(std::string_view name, double v) {
  std::lock_guard<std::mutex> lk(mu_);
  MetricValue& m = metrics_[std::string(name)];
  m.kind = MetricKind::Gauge;
  m.value = v;
}

void MetricsRegistry::set_max(std::string_view name, double v) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    MetricValue m;
    m.kind = MetricKind::Gauge;
    m.value = v;
    metrics_.emplace(std::string(name), m);
    return;
  }
  if (v > it->second.value) it->second.value = v;
}

void MetricsRegistry::observe(std::string_view name, double v) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    MetricValue m;
    m.kind = MetricKind::Histogram;
    m.observe_value(v);
    metrics_.emplace(std::string(name), std::move(m));
    return;
  }
  it->second.observe_value(v);
}

void MetricsRegistry::merge_locked(const std::string& name,
                                   const MetricValue& v) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    metrics_.emplace(name, v);
    return;
  }
  MetricValue& m = it->second;
  switch (v.kind) {
    case MetricKind::Counter: m.count += v.count; break;
    case MetricKind::Gauge:
      if (v.value > m.value) m.value = v.value; // merge keeps the max
      break;
    case MetricKind::Histogram: m.merge_histogram(v); break;
  }
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  std::vector<Entry> theirs = o.snapshot();
  std::lock_guard<std::mutex> lk(mu_);
  for (const Entry& e : theirs) merge_locked(e.name, e.v);
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  metrics_.clear();
}

uint64_t MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.count;
}

double MetricsRegistry::gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

double MetricsRegistry::hist_sum(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.sum;
}

double MetricsRegistry::percentile(std::string_view name, double q) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.percentile(q);
}

bool MetricsRegistry::contains(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return metrics_.find(name) != metrics_.end();
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Entry> out;
  out.reserve(metrics_.size());
  for (const auto& [name, v] : metrics_) out.push_back(Entry{name, v});
  return out;
}

// --- absorbers ---------------------------------------------------------------

void MetricsRegistry::absorb_sched(const SchedStats& s) {
  if (s.per_worker.empty()) return;
  set_max("sched.workers", static_cast<double>(s.workers));
  char name[64];
  for (std::size_t i = 0; i < s.per_worker.size(); ++i) {
    const WorkerStats& w = s.per_worker[i];
    stat_fields::absorb(*this, "sched.", w);
    if (w.tasks_run == 0 && w.steal_attempts == 0) continue;
    // Per-slot detail; the last slot is the external helper (the thread
    // that called wait() and worked the queue), as in sched/pool.hpp.
    const bool external = i + 1 == s.per_worker.size() &&
                          static_cast<int>(i) == s.workers;
    if (external)
      std::snprintf(name, sizeof name, "sched.ext.");
    else
      std::snprintf(name, sizeof name, "sched.w%zu.", i);
    stat_fields::absorb(*this, name, w);
  }
}

void MetricsRegistry::absorb_status(const FlowStatus& st) {
  add("flow.rows");
  switch (st.outcome) {
    case FlowOutcome::Ok: add("flow.ok"); break;
    case FlowOutcome::Degraded: add("flow.degraded"); break;
    case FlowOutcome::Failed: add("flow.failed"); break;
  }
}

// --- the one formatter -------------------------------------------------------

namespace {

bool has_prefix(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

const MetricValue* find(const std::vector<MetricsRegistry::Entry>& es,
                        std::string_view name) {
  for (const auto& e : es)
    if (e.name == name) return &e.v;
  return nullptr;
}

uint64_t cnt(const std::vector<MetricsRegistry::Entry>& es,
             std::string_view name) {
  const MetricValue* v = find(es, name);
  return v == nullptr ? 0 : v->count;
}

double gval(const std::vector<MetricsRegistry::Entry>& es,
            std::string_view name) {
  const MetricValue* v = find(es, name);
  return v == nullptr ? 0.0 : v->value;
}

double hsum(const std::vector<MetricsRegistry::Entry>& es,
            std::string_view name) {
  const MetricValue* v = find(es, name);
  return v == nullptr ? 0.0 : v->sum;
}

void format_dd_block(const std::vector<MetricsRegistry::Entry>& es,
                     std::string& out) {
  const uint64_t cache_lookups = cnt(es, "dd.cache_lookups");
  const uint64_t unique_lookups = cnt(es, "dd.unique_lookups");
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "DD kernel: %llu cache lookups (hit rate %.1f%%), "
      "%llu unique-table probes (%.1f%% hits), peak live nodes %zu, "
      "%llu gc runs freeing %llu nodes, %llu reorders (%llu swaps)\n",
      static_cast<unsigned long long>(cache_lookups),
      cache_lookups == 0 ? 0.0
                         : 100.0 *
                               static_cast<double>(cnt(es, "dd.cache_hits")) /
                               static_cast<double>(cache_lookups),
      static_cast<unsigned long long>(unique_lookups),
      unique_lookups == 0 ? 0.0
                          : 100.0 *
                                static_cast<double>(cnt(es, "dd.unique_hits")) /
                                static_cast<double>(unique_lookups),
      static_cast<std::size_t>(gval(es, "dd.peak_live_nodes")),
      static_cast<unsigned long long>(cnt(es, "dd.gc_runs")),
      static_cast<unsigned long long>(cnt(es, "dd.nodes_freed")),
      static_cast<unsigned long long>(cnt(es, "dd.reorder_runs")),
      static_cast<unsigned long long>(cnt(es, "dd.reorder_swaps")));
  out += buf;
}

void format_sched_block(const std::vector<MetricsRegistry::Entry>& es,
                        std::string& out) {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "Scheduler: %d workers, %llu tasks (%llu stolen in %llu steals), "
      "busy %.2fs / idle %.2fs, peak queue depth %zu\n",
      static_cast<int>(gval(es, "sched.workers")),
      static_cast<unsigned long long>(cnt(es, "sched.tasks")),
      static_cast<unsigned long long>(cnt(es, "sched.tasks_stolen")),
      static_cast<unsigned long long>(cnt(es, "sched.steals")),
      hsum(es, "sched.busy_seconds"), hsum(es, "sched.idle_seconds"),
      static_cast<std::size_t>(gval(es, "sched.peak_queue_depth")));
  out += buf;
  const auto slot_line = [&](const std::string& slot, const char* label) {
    if (find(es, slot + ".tasks") == nullptr &&
        find(es, slot + ".steal_attempts") == nullptr)
      return;
    std::snprintf(
        buf, sizeof buf,
        "  %-4s: %6llu tasks, %5llu stolen/%llu steals (%llu probes), "
        "busy %8.2fs, idle %8.2fs, peak depth %zu\n",
        label, static_cast<unsigned long long>(cnt(es, slot + ".tasks")),
        static_cast<unsigned long long>(cnt(es, slot + ".tasks_stolen")),
        static_cast<unsigned long long>(cnt(es, slot + ".steals")),
        static_cast<unsigned long long>(cnt(es, slot + ".steal_attempts")),
        hsum(es, slot + ".busy_seconds"), hsum(es, slot + ".idle_seconds"),
        static_cast<std::size_t>(gval(es, slot + ".peak_queue_depth")));
    out += buf;
  };
  const int workers = static_cast<int>(gval(es, "sched.workers"));
  char label[32];
  for (int i = 0; i < workers; ++i) {
    std::snprintf(label, sizeof label, "w%d", i);
    slot_line("sched.w" + std::to_string(i), label);
  }
  slot_line("sched.ext", "ext0");
}

void format_sim_block(const std::vector<MetricsRegistry::Entry>& es,
                      std::string& out) {
  const uint64_t events = cnt(es, "sim.events");
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "Sim engine: %llu full passes, %llu incremental resims "
      "(%llu events, %.1f%% died), %llu fault probes over %llu cone nodes, "
      "%llu faults dropped (%llu blocks skipped), %llu cached reads\n",
      static_cast<unsigned long long>(cnt(es, "sim.full_passes")),
      static_cast<unsigned long long>(cnt(es, "sim.incr_resims")),
      static_cast<unsigned long long>(events),
      events == 0 ? 0.0
                  : 100.0 * static_cast<double>(cnt(es, "sim.events_died")) /
                        static_cast<double>(events),
      static_cast<unsigned long long>(cnt(es, "sim.fault_probes")),
      static_cast<unsigned long long>(cnt(es, "sim.cone_nodes")),
      static_cast<unsigned long long>(cnt(es, "sim.faults_dropped")),
      static_cast<unsigned long long>(cnt(es, "sim.blocks_skipped")),
      static_cast<unsigned long long>(cnt(es, "sim.value_reuses")));
  out += buf;
  // SIMD line only when a kernel pass actually ran.
  const uint64_t blocks = cnt(es, "sim.simd_blocks");
  if (blocks > 0) {
    std::snprintf(buf, sizeof buf, "Sim SIMD: %llu blocks, %.3g patterns/s\n",
                  static_cast<unsigned long long>(blocks),
                  gval(es, "sim.patterns_per_second"));
    out += buf;
  }
}

void format_rewrite_block(const std::vector<MetricsRegistry::Entry>& es,
                          std::string& out) {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "Rewrite: %llu passes over %llu roots, %llu cuts (%llu db hits), "
      "%llu candidates -> %llu applied (%llu stale, %llu sim rejects, "
      "%llu bdd rejects), lits %llu -> %llu (saved %llu)\n",
      static_cast<unsigned long long>(cnt(es, "rewrite.passes")),
      static_cast<unsigned long long>(cnt(es, "rewrite.roots")),
      static_cast<unsigned long long>(cnt(es, "rewrite.cuts_enumerated")),
      static_cast<unsigned long long>(cnt(es, "rewrite.db_hits")),
      static_cast<unsigned long long>(cnt(es, "rewrite.candidates")),
      static_cast<unsigned long long>(cnt(es, "rewrite.replacements")),
      static_cast<unsigned long long>(cnt(es, "rewrite.stale_skips")),
      static_cast<unsigned long long>(cnt(es, "rewrite.sim_rejects")),
      static_cast<unsigned long long>(cnt(es, "rewrite.bdd_rejects")),
      static_cast<unsigned long long>(cnt(es, "rewrite.lits_before")),
      static_cast<unsigned long long>(cnt(es, "rewrite.lits_after")),
      static_cast<unsigned long long>(cnt(es, "rewrite.gain_lits")));
  out += buf;
  const double cuts_s = hsum(es, "rewrite.cuts_seconds");
  const double eval_s = hsum(es, "rewrite.eval_seconds");
  const double apply_s = hsum(es, "rewrite.apply_seconds");
  if (cuts_s + eval_s + apply_s > 0.0) {
    std::snprintf(buf, sizeof buf,
                  "  phases: cuts %.3fs, evaluate %.3fs, apply %.3fs\n",
                  cuts_s, eval_s, apply_s);
    out += buf;
  }
}

} // namespace

std::string format_metrics_summary(const MetricsRegistry& m) {
  const std::vector<MetricsRegistry::Entry> es = m.snapshot();
  std::string out;
  bool any_dd = false, any_sched = false, any_sim = false, any_rw = false;
  for (const auto& e : es) {
    any_dd |= has_prefix(e.name, "dd.");
    any_sched |= has_prefix(e.name, "sched.");
    any_sim |= has_prefix(e.name, "sim.");
    any_rw |= has_prefix(e.name, "rewrite.");
  }
  if (any_dd) format_dd_block(es, out);
  if (any_sched) format_sched_block(es, out);
  if (any_sim) format_sim_block(es, out);
  if (any_rw) format_rewrite_block(es, out);
  // Anything outside the well-known groups renders generically, so new
  // instrumentation shows up without formatter changes.
  char buf[192];
  for (const auto& e : es) {
    if (has_prefix(e.name, "dd.") || has_prefix(e.name, "sched.") ||
        has_prefix(e.name, "sim.") || has_prefix(e.name, "rewrite."))
      continue;
    switch (e.v.kind) {
      case MetricKind::Counter:
        std::snprintf(buf, sizeof buf, "%s=%llu\n", e.name.c_str(),
                      static_cast<unsigned long long>(e.v.count));
        break;
      case MetricKind::Gauge:
        std::snprintf(buf, sizeof buf, "%s=%g\n", e.name.c_str(), e.v.value);
        break;
      case MetricKind::Histogram:
        std::snprintf(buf, sizeof buf,
                      "%s: n=%llu sum=%g min=%g mean=%g max=%g "
                      "p50=%g p99=%g\n",
                      e.name.c_str(),
                      static_cast<unsigned long long>(e.v.count), e.v.sum,
                      e.v.min, e.v.mean(), e.v.max, e.v.percentile(0.5),
                      e.v.percentile(0.99));
        break;
    }
    out += buf;
  }
  return out;
}

} // namespace rmsyn::obs
