// Metrics registry — the "how much happened" half of the obs subsystem.
//
// Every layer of the flow counts things (BddStats in the DD kernel,
// SchedStats in the work-stealing pool, SimStats, rewrite counters,
// governor polls and ladder descents, FlowStatus outcomes). The registry
// holds them as named counters / gauges / histograms under dotted names
// ("dd.cache_lookups", "sched.w0.tasks", "flow.row_seconds"), filled by
// one absorber driven by each stat struct's field table, and rendered by
// ONE formatter — format_metrics_summary() — for every summary block the
// CLI and benches print. format_dd_kernel_summary / format_sched_summary
// are thin wrappers over it, and the run report serializes the same
// snapshot as machine-readable JSON (obs/report.hpp). Per-stage seconds
// are not metrics: they live in each row's StageBreakdown (obs/stage.hpp).
//
// Thread safety: all operations lock a single mutex. The registry sits on
// reporting paths (end of a flow, end of a run), never inside kernels, so
// contention is irrelevant; the lock-free budget belongs to the tracer.
//
// Well-known name groups (see DESIGN.md §9):
//   dd.*     DD-kernel counters absorbed from BddStats
//   sched.*  pool aggregates + per-worker sched.w<i>.* / sched.ext.*
//   sim.*    incremental-simulation engine counters absorbed from SimStats
//   rewrite.* cut-rewriting pass counters absorbed from rw::RewriteStats
//   flow.*   row outcomes, governor polls/descents, row count, per-row
//            latency histogram (flow.row_seconds), for the run report
//   os.*     process-level gauges (os.peak_rss_mb), stamped per run report
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/governor.hpp"

namespace rmsyn {

struct SchedStats; // sched/pool.hpp

namespace obs {

enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

const char* to_string(MetricKind k);

/// Log-spaced bucket layout shared by every histogram metric. The bounds
/// are global (not per-metric) so per-worker shards merge by plain
/// element-wise addition — merge is associative and commutative, which is
/// what the batch runner's "merge shards in any settle order" path needs.
///
/// Bucket i covers [lower(i), lower(i+1)) with kPerDecade buckets per
/// decade from kMinBound up; values below kMinBound land in bucket 0,
/// values past the top land in the overflow bucket (the last one). The
/// range 1e-7 .. 1e5 covers 100ns-granularity latencies up to day-long
/// runs, the unit every current histogram uses (seconds).
struct HistogramBuckets {
  static constexpr int kPerDecade = 8;
  static constexpr double kMinBound = 1e-7;
  static constexpr int kDecades = 12;
  /// underflow bucket + kPerDecade*kDecades log buckets + overflow bucket
  static constexpr int kCount = kPerDecade * kDecades + 2;

  /// Bucket index for a value (clamped to [0, kCount-1]).
  static int bucket_for(double v);
  /// Inclusive lower bound of bucket i (0.0 for bucket 0).
  static double lower(int i);
  /// Exclusive upper bound of bucket i (+inf for the overflow bucket).
  static double upper(int i);
};

/// One metric. Counters use `count`; gauges use `value`; histograms use
/// count/sum/min/max plus log-spaced bucket counts that answer percentile
/// queries (p50/p99 row latency) and merge exactly
/// across per-worker shards.
struct MetricValue {
  MetricKind kind = MetricKind::Counter;
  uint64_t count = 0;
  double value = 0.0; ///< gauge value
  double sum = 0.0;   ///< histogram sum
  double min = 0.0;
  double max = 0.0;
  /// Histogram bucket counts (HistogramBuckets layout); empty until the
  /// first observe() so counters and gauges stay small.
  std::vector<uint64_t> buckets;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Quantile estimate from the buckets, q in [0, 1]: finds the bucket
  /// holding the ceil(q * count)-th observation and log-interpolates
  /// inside it, clamped to the observed [min, max] so single-valued and
  /// extreme quantiles are exact. Returns 0.0 for an empty histogram.
  double percentile(double q) const;

  /// Records one histogram observation (count/sum/min/max + bucket).
  void observe_value(double v);
  /// Merges another histogram shard into this one (element-wise bucket
  /// addition; associative).
  void merge_histogram(const MetricValue& o);
};

class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry& o) { merge(o); }
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- writers -------------------------------------------------------------
  void add(std::string_view name, uint64_t delta = 1);      ///< counter
  void set(std::string_view name, double v);                ///< gauge (last)
  void set_max(std::string_view name, double v);            ///< gauge (max)
  void observe(std::string_view name, double v);            ///< histogram
  void merge(const MetricsRegistry& o);
  void clear();

  // --- readers -------------------------------------------------------------
  uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  double hist_sum(std::string_view name) const;
  /// Bucket-interpolated quantile of a histogram metric, q in [0, 1];
  /// 0.0 for a missing or empty histogram.
  double percentile(std::string_view name, double q) const;
  bool contains(std::string_view name) const;

  struct Entry {
    std::string name;
    MetricValue v;
  };
  /// Name-sorted copy of every metric (stable serialization order).
  std::vector<Entry> snapshot() const;

  // --- absorbers ------------------------------------------------------------
  // Stats structs with a field table go through stat_fields::absorb(
  // registry, prefix, stats) (util/stat_fields.hpp); these cover the rest.
  /// Pool totals under sched.* from every slot, plus per-slot
  /// sched.w<i>.* / sched.ext.* for slots that ran or probed for work.
  void absorb_sched(const SchedStats& s);
  /// Row outcome (`flow.ok/degraded/failed`) under the given flow prefix.
  void absorb_status(const FlowStatus& st);

private:
  void merge_locked(const std::string& name, const MetricValue& v);

  mutable std::mutex mu_;
  std::map<std::string, MetricValue, std::less<>> metrics_;
};

/// THE summary formatter: renders every well-known metric group present in
/// the registry as the human-readable blocks the CLI and bench harnesses
/// print (DD kernel line, scheduler block with per-worker rows, sim and
/// rewrite lines). Groups with no entries are omitted; any other name
/// renders generically as a "name=value" line.
std::string format_metrics_summary(const MetricsRegistry& m);

} // namespace obs
} // namespace rmsyn
