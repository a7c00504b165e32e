// Observability subsystem tests: span tracer (lock-free thread buffers,
// Chrome export), stage breakdowns, the metrics registry and its absorbers,
// the unified summary formatter, the JSON model, the report builder plus
// subset-schema validation, golden-file schema stability, FlowStatus
// ordering, the heartbeat, and the serialized output sink.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "flow/flow.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "obs/stage.hpp"
#include "obs/trace.hpp"
#include "rewrite/rewrite.hpp"
#include "sched/pool.hpp"
#include "sim/sim.hpp"
#include "util/governor.hpp"
#include "util/progress.hpp"

#ifndef RMSYN_SOURCE_DIR
#define RMSYN_SOURCE_DIR "."
#endif

namespace rmsyn {
namespace {

// --- tracer -----------------------------------------------------------------

class TracerTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().enable();
  }
  void TearDown() override {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().reset();
  }
};

TEST_F(TracerTest, RecordsNestedSpansWithDepth) {
  {
    RMSYN_SPAN("outer");
    RMSYN_SPAN("inner");
  }
  const auto snap = obs::Tracer::instance().snapshot();
  std::size_t events = 0;
  bool saw_outer = false, saw_inner = false;
  for (const auto& t : snap.threads) {
    events += t.events.size();
    for (const auto& e : t.events) {
      if (std::string(e.name) == "outer") {
        saw_outer = true;
        EXPECT_EQ(e.depth, 0);
      }
      if (std::string(e.name) == "inner") {
        saw_inner = true;
        EXPECT_EQ(e.depth, 1);
      }
    }
  }
  EXPECT_EQ(events, 2u);
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST_F(TracerTest, StageSpanDurationEqualsBreakdownSeconds) {
  // ScopedStage reads the clock once on entry and once on exit and gives
  // that pair to both its span and its breakdown entry.
  StageBreakdown sb;
  { obs::ScopedStage stage(nullptr, &sb, "timed-stage"); }
  const auto snap = obs::Tracer::instance().snapshot();
  const obs::SpanEvent* ev = nullptr;
  for (const auto& t : snap.threads)
    for (const auto& e : t.events)
      if (std::string(e.name) == "timed-stage") ev = &e;
  ASSERT_NE(ev, nullptr);
  ASSERT_NE(sb.find("timed-stage"), nullptr);
  EXPECT_EQ(1e-9 * static_cast<double>(ev->dur_ns),
            sb.seconds_for("timed-stage"));
}

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  obs::Tracer::instance().disable();
  { RMSYN_SPAN("ghost"); }
  EXPECT_EQ(obs::Tracer::instance().summary().events, 0u);
}

TEST_F(TracerTest, MergesSpansFromManyThreads) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([] {
      for (int k = 0; k < 10; ++k) RMSYN_SPAN("worker-span");
    });
  for (auto& t : threads) t.join();
  const auto sum = obs::Tracer::instance().summary();
  EXPECT_EQ(sum.events, 40u);
  EXPECT_GE(sum.threads, kThreads);
  EXPECT_EQ(sum.dropped, 0u);
}

TEST_F(TracerTest, OverflowDropsAndCounts) {
  for (std::size_t i = 0; i < obs::Tracer::kThreadCapacity + 100; ++i)
    RMSYN_SPAN("tiny");
  const auto snap = obs::Tracer::instance().snapshot();
  uint64_t dropped = 0;
  std::size_t events = 0;
  for (const auto& t : snap.threads) {
    dropped += t.dropped;
    events += t.events.size();
  }
  EXPECT_EQ(dropped, 100u);
  EXPECT_EQ(events, obs::Tracer::kThreadCapacity);
}

TEST_F(TracerTest, ChromeExportIsValidJsonWithThreadNames) {
  {
    RMSYN_SPAN("exported \"span\"\n");
  }
  const std::string json = obs::Tracer::instance().chrome_trace_json();
  const obs::Json doc = obs::Json::parse(json); // must parse
  ASSERT_TRUE(doc.get("traceEvents").is_array());
  bool meta = false, span = false;
  for (const obs::Json& ev : doc.get("traceEvents").items()) {
    if (ev.get("ph").as_string() == "M") meta = true;
    if (ev.get("ph").as_string() == "X") {
      span = true;
      EXPECT_TRUE(ev.contains("ts"));
      EXPECT_TRUE(ev.contains("dur"));
    }
  }
  EXPECT_TRUE(meta);
  EXPECT_TRUE(span);
}

TEST_F(TracerTest, ResetDiscardsEverything) {
  { RMSYN_SPAN("before-reset"); }
  EXPECT_GT(obs::Tracer::instance().summary().events, 0u);
  obs::Tracer::instance().reset();
  EXPECT_EQ(obs::Tracer::instance().summary().events, 0u);
}

// --- stage breakdown --------------------------------------------------------

TEST(StageBreakdown, MergesByNameAndSorts) {
  StageBreakdown sb;
  sb.add("verify", 0.5);
  sb.add("factor", 2.0);
  sb.add("verify", 0.25, 2);
  EXPECT_EQ(sb.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(sb.seconds_for("verify"), 0.75);
  EXPECT_EQ(sb.find("verify")->calls, 3u);
  EXPECT_DOUBLE_EQ(sb.total_seconds(), 2.75);
  // to_string sorts descending by seconds: factor first.
  const std::string s = sb.to_string();
  EXPECT_LT(s.find("factor"), s.find("verify"));

  StageBreakdown other;
  other.add("factor", 1.0);
  other.add("mapping", 0.1);
  sb.accumulate(other);
  EXPECT_DOUBLE_EQ(sb.seconds_for("factor"), 3.0);
  EXPECT_EQ(sb.entries.size(), 3u);
}

TEST(ScopedStage, TimesIntoBreakdownAndTracksGovernorStage) {
  StageBreakdown sb;
  ResourceGovernor gov{ResourceLimits{}};
  {
    obs::ScopedStage stage(&gov, &sb, "unit-stage");
    EXPECT_EQ(gov.current_stage(), "unit-stage");
  }
  EXPECT_EQ(gov.current_stage(), "");
  ASSERT_NE(sb.find("unit-stage"), nullptr);
  EXPECT_EQ(sb.find("unit-stage")->calls, 1u);
  EXPECT_GE(sb.find("unit-stage")->seconds, 0.0);
}

TEST(ScopedStage, WorksWithoutGovernorOrBreakdown) {
  obs::ScopedStage a(nullptr, nullptr, "nothing");
  StageBreakdown sb;
  obs::ScopedStage b(nullptr, &sb, "only-sb");
}

// --- profiler ---------------------------------------------------------------

class ProfilerTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::Tracer::instance().disable();
    obs::Profiler::instance().reset();
    obs::Profiler::instance().enable();
  }
  void TearDown() override {
    obs::Profiler::instance().disable();
    obs::Profiler::instance().reset();
  }
};

const obs::Profiler::Node* find_child(const obs::Profiler::Node& n,
                                      const std::string& name) {
  for (const auto& c : n.children)
    if (c.name == name) return &c;
  return nullptr;
}

TEST_F(ProfilerTest, BuildsAttributionTreeWithExclusiveTime) {
  {
    RMSYN_SPAN("outer");
    {
      RMSYN_SPAN("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    { RMSYN_SPAN("inner"); } // same name, same parent -> same node
    { RMSYN_SPAN("other"); }
  }
  const obs::Profiler::Node root = obs::Profiler::instance().merged();
  EXPECT_EQ(root.name, "root");
  const obs::Profiler::Node* outer = find_child(root, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  ASSERT_EQ(outer->children.size(), 2u);
  const obs::Profiler::Node* inner = find_child(*outer, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 2u);
  EXPECT_GE(inner->incl_ns, uint64_t{3'000'000}); // the sleep is inclusive
  EXPECT_EQ(inner->excl_ns, inner->incl_ns);      // leaf: excl == incl
  ASSERT_NE(find_child(*outer, "other"), nullptr);
  // Parent exclusive time = inclusive minus the children's inclusive sum.
  uint64_t child_incl = 0;
  for (const auto& c : outer->children) child_incl += c.incl_ns;
  EXPECT_GE(outer->incl_ns, child_incl);
  EXPECT_EQ(outer->excl_ns, outer->incl_ns - child_incl);
}

TEST_F(ProfilerTest, FoldedOutputEmitsSemicolonPaths) {
  {
    RMSYN_SPAN("alpha");
    {
      RMSYN_SPAN("beta");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const std::string folded = obs::Profiler::instance().folded();
  // beta's sleep is exclusive time on the "alpha;beta" stack.
  EXPECT_NE(folded.find("alpha;beta "), std::string::npos) << folded;
  // Every line is "<path> <integer_us>".
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t eol = folded.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = folded.substr(pos, eol - pos);
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string us = line.substr(sp + 1);
    EXPECT_FALSE(us.empty()) << line;
    EXPECT_EQ(us.find_first_not_of("0123456789"), std::string::npos) << line;
    pos = eol + 1;
  }
}

TEST_F(ProfilerTest, JsonExportParsesAndMirrorsTheTree) {
  {
    RMSYN_SPAN("stage-x");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const obs::Json doc = obs::Json::parse(obs::Profiler::instance().json());
  EXPECT_EQ(doc.get("name").as_string(), "root");
  ASSERT_TRUE(doc.contains("children"));
  EXPECT_EQ(doc.get("children").at(0).get("name").as_string(), "stage-x");
  EXPECT_GT(doc.get("children").at(0).get("incl_ms").as_number(), 0.0);
}

TEST_F(ProfilerTest, ResetDropsFramesAndDisabledSpansRecordNothing) {
  { RMSYN_SPAN("gone"); }
  EXPECT_FALSE(obs::Profiler::instance().merged().children.empty());
  obs::Profiler::instance().reset();
  EXPECT_TRUE(obs::Profiler::instance().merged().children.empty());

  obs::Profiler::instance().disable();
  { RMSYN_SPAN("ghost"); }
  EXPECT_TRUE(obs::Profiler::instance().merged().children.empty());
  obs::Profiler::instance().enable();
}

TEST_F(ProfilerTest, WorkerThreadTreesMergeByName) {
  auto work = [] {
    RMSYN_SPAN("shared-stage");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  const obs::Profiler::Node root = obs::Profiler::instance().merged();
  const obs::Profiler::Node* stage = find_child(root, "shared-stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->calls, 2u); // both threads fold into one node
  EXPECT_GE(stage->incl_ns, uint64_t{2'000'000});
}

// --- metrics registry -------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  obs::MetricsRegistry m;
  m.add("c");
  m.add("c", 4);
  m.set("g", 2.0);
  m.set("g", 1.0); // set = last wins
  m.set_max("p", 5.0);
  m.set_max("p", 3.0); // set_max keeps the max
  m.observe("h", 1.0);
  m.observe("h", 3.0);
  EXPECT_EQ(m.counter("c"), 5u);
  EXPECT_DOUBLE_EQ(m.gauge("g"), 1.0);
  EXPECT_DOUBLE_EQ(m.gauge("p"), 5.0);
  EXPECT_DOUBLE_EQ(m.hist_sum("h"), 4.0);
  EXPECT_TRUE(m.contains("c"));
  EXPECT_FALSE(m.contains("missing"));
  EXPECT_EQ(m.counter("missing"), 0u);

  obs::MetricsRegistry o;
  o.add("c", 10);
  o.set_max("p", 9.0);
  o.observe("h", 0.5);
  m.merge(o);
  EXPECT_EQ(m.counter("c"), 15u);
  EXPECT_DOUBLE_EQ(m.gauge("p"), 9.0);
  EXPECT_DOUBLE_EQ(m.hist_sum("h"), 4.5);

  const auto snap = m.snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LT(snap[i - 1].name, snap[i].name); // name-sorted
  m.clear();
  EXPECT_FALSE(m.contains("c"));
}

// --- histogram percentiles --------------------------------------------------

TEST(HistogramPercentile, KnownDistributionWithinBucketResolution) {
  obs::MetricValue h;
  h.kind = obs::MetricKind::Histogram;
  for (int i = 1; i <= 100; ++i) h.observe_value(0.001 * i); // 1ms..100ms
  // Extremes clamp to the observed range exactly.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.1);
  // Interior quantiles land within one log bucket (ratio 10^(1/8) ~ 1.33)
  // of the true nearest-rank value.
  EXPECT_NEAR(h.percentile(0.5), 0.050, 0.050 * 0.34);
  EXPECT_NEAR(h.percentile(0.99), 0.099, 0.099 * 0.34);
  // Monotone in q.
  EXPECT_LE(h.percentile(0.5), h.percentile(0.9));
  EXPECT_LE(h.percentile(0.9), h.percentile(0.99));
  EXPECT_LE(h.percentile(0.99), h.percentile(1.0));
}

TEST(HistogramPercentile, SingleValueIsExactAtEveryQuantile) {
  obs::MetricValue h;
  h.kind = obs::MetricKind::Histogram;
  h.observe_value(0.007);
  h.observe_value(0.007);
  h.observe_value(0.007);
  // min == max clamps every quantile to the one observed value.
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile(q), 0.007) << "q=" << q;
}

TEST(HistogramPercentile, EmptyAndMissingHistogramsReturnZero) {
  obs::MetricValue h;
  h.kind = obs::MetricKind::Histogram;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);

  obs::MetricsRegistry m;
  EXPECT_DOUBLE_EQ(m.percentile("missing", 0.5), 0.0);
  m.add("a.counter"); // wrong kind, not a histogram
  EXPECT_DOUBLE_EQ(m.percentile("a.counter", 0.5), 0.0);
}

TEST(HistogramPercentile, UnderflowAndOverflowBucketsClampToObservedRange) {
  obs::MetricValue h;
  h.kind = obs::MetricKind::Histogram;
  h.observe_value(1e-9); // below kMinBound: underflow bucket
  h.observe_value(1e9);  // past the top decade: overflow bucket
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1e-9);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e9);
  EXPECT_GE(h.percentile(0.5), 1e-9);
  EXPECT_LE(h.percentile(0.5), 1e9);
}

TEST(HistogramPercentile, ShardMergeIsAssociativeAndOrderIndependent) {
  // Three per-worker shards with disjoint value ranges; because every
  // shard shares the global bucket layout, merge must be exact: any
  // grouping/order yields identical buckets and identical percentiles.
  auto make_shard = [](double lo, int n) {
    obs::MetricValue h;
    h.kind = obs::MetricKind::Histogram;
    for (int i = 0; i < n; ++i) h.observe_value(lo * (1.0 + 0.1 * i));
    return h;
  };
  const obs::MetricValue a = make_shard(1e-4, 7);
  const obs::MetricValue b = make_shard(1e-2, 5);
  const obs::MetricValue c = make_shard(1.0, 9);

  obs::MetricValue ab_c = a; // (a+b)+c
  ab_c.merge_histogram(b);
  ab_c.merge_histogram(c);
  obs::MetricValue bc = b; // a+(b+c)
  bc.merge_histogram(c);
  obs::MetricValue a_bc = a;
  a_bc.merge_histogram(bc);
  obs::MetricValue cba = c; // reversed order
  cba.merge_histogram(b);
  cba.merge_histogram(a);

  for (const obs::MetricValue* m : {&a_bc, &cba}) {
    EXPECT_EQ(ab_c.count, m->count);
    EXPECT_DOUBLE_EQ(ab_c.sum, m->sum);
    EXPECT_DOUBLE_EQ(ab_c.min, m->min);
    EXPECT_DOUBLE_EQ(ab_c.max, m->max);
    ASSERT_EQ(ab_c.buckets.size(), m->buckets.size());
    for (std::size_t i = 0; i < ab_c.buckets.size(); ++i)
      EXPECT_EQ(ab_c.buckets[i], m->buckets[i]) << "bucket " << i;
    for (const double q : {0.1, 0.5, 0.9, 0.99})
      EXPECT_DOUBLE_EQ(ab_c.percentile(q), m->percentile(q)) << "q=" << q;
  }
  EXPECT_EQ(ab_c.count, 21u);

  // Merging an empty shard is the identity.
  obs::MetricValue empty;
  empty.kind = obs::MetricKind::Histogram;
  obs::MetricValue with_empty = ab_c;
  with_empty.merge_histogram(empty);
  EXPECT_EQ(with_empty.count, ab_c.count);
  EXPECT_DOUBLE_EQ(with_empty.percentile(0.5), ab_c.percentile(0.5));
}

TEST(HistogramPercentile, RegistryObserveFeedsBucketsAndSummaryLine) {
  obs::MetricsRegistry m;
  for (int i = 0; i < 100; ++i) m.observe("lat", 0.010);
  m.observe("lat", 1.0); // one outlier: p50 stays ~10ms, p99+ sees it
  EXPECT_NEAR(m.percentile("lat", 0.5), 0.010, 0.004);
  EXPECT_GT(m.percentile("lat", 0.995), 0.5);
  const std::string out = obs::format_metrics_summary(m);
  EXPECT_NE(out.find("p50="), std::string::npos);
  EXPECT_NE(out.find("p99="), std::string::npos);
}

TEST(MetricsRegistry, AbsorbersPopulateWellKnownGroups) {
  obs::MetricsRegistry m;
  BddStats bdd;
  bdd.cache_lookups = 100;
  bdd.cache_hits = 60;
  bdd.unique_lookups = 50;
  bdd.unique_hits = 25;
  bdd.peak_live_nodes = 42;
  bdd.gc_runs = 3;
  stat_fields::absorb(m, "dd.", bdd);
  EXPECT_EQ(m.counter("dd.cache_lookups"), 100u);
  EXPECT_DOUBLE_EQ(m.gauge("dd.peak_live_nodes"), 42.0);

  SchedStats sched;
  sched.workers = 2;
  sched.per_worker.resize(3); // 2 workers + external slot
  sched.per_worker[0].tasks_run = 7;
  sched.per_worker[0].busy_seconds = 0.5;
  sched.per_worker[1].tasks_run = 5;
  sched.per_worker[1].steals = 2;
  sched.per_worker[1].tasks_stolen = 2;
  sched.per_worker[1].steal_attempts = 4;
  sched.per_worker[2].tasks_run = 1;
  sched.per_worker[2].peak_queue_depth = 9;
  m.absorb_sched(sched);
  EXPECT_EQ(m.counter("sched.tasks"), 13u);
  EXPECT_EQ(m.counter("sched.w1.steals"), 2u);
  EXPECT_EQ(m.counter("sched.ext.tasks"), 1u);
  EXPECT_DOUBLE_EQ(m.gauge("sched.peak_queue_depth"), 9.0);
  // Zero seconds are real per-slot samples: the external slot never parks.
  EXPECT_TRUE(m.contains("sched.ext.idle_seconds"));
  {
    // A slot that neither ran nor probed gets no per-slot entries, but
    // its idle time still counts in the pool totals.
    SchedStats parked;
    parked.workers = 1;
    parked.per_worker.resize(2);
    parked.per_worker[0].idle_seconds = 0.5;
    parked.per_worker[1].tasks_run = 1;
    obs::MetricsRegistry pm;
    pm.absorb_sched(parked);
    EXPECT_DOUBLE_EQ(pm.hist_sum("sched.idle_seconds"), 0.5);
    EXPECT_FALSE(pm.contains("sched.w0.idle_seconds"));
    EXPECT_TRUE(pm.contains("sched.ext.tasks"));
  }

  SimStats sim;
  sim.full_passes = 2;
  sim.incr_resims = 3;
  sim.events = 40;
  sim.events_died = 10;
  sim.fault_probes = 5;
  sim.cone_nodes = 60;
  sim.faults_dropped = 4;
  sim.blocks_skipped = 1;
  sim.value_reuses = 7;
  sim.simd_blocks = 8;
  sim.patterns_simulated = 512;
  sim.full_pass_seconds = 0.25;
  stat_fields::absorb(m, "sim.", sim);
  rw::RewriteStats rws;
  rws.passes = 1;
  rws.roots = 2;
  rws.cuts_enumerated = 3;
  rws.db_hits = 4;
  rws.candidates = 5;
  rws.stale_skips = 6;
  rws.replacements = 7;
  rws.sim_rejects = 8;
  rws.bdd_rejects = 9;
  rws.lits_before = 10;
  rws.lits_after = 11;
  rws.gain_lits = 12;
  rws.cuts_seconds = 0.5;
  rws.eval_seconds = 0.25;
  stat_fields::absorb(m, "rewrite.", rws);
  // Every exported sim.* / rewrite.* name and nothing else: the summed
  // internals (patterns_simulated, full_pass_seconds, dd live_nodes) only
  // feed the derived rate, and a phase that never ran adds no histogram.
  std::vector<std::string> names;
  for (const auto& e : m.snapshot())
    if (e.name.rfind("sim.", 0) == 0 || e.name.rfind("rewrite.", 0) == 0)
      names.push_back(e.name + ":" + obs::to_string(e.v.kind));
  const std::vector<std::string> want = {
      "rewrite.bdd_rejects:counter",     "rewrite.candidates:counter",
      "rewrite.cuts_enumerated:counter", "rewrite.cuts_seconds:histogram",
      "rewrite.db_hits:counter",         "rewrite.eval_seconds:histogram",
      "rewrite.gain_lits:counter",       "rewrite.lits_after:counter",
      "rewrite.lits_before:counter",     "rewrite.passes:counter",
      "rewrite.replacements:counter",    "rewrite.roots:counter",
      "rewrite.sim_rejects:counter",     "rewrite.stale_skips:counter",
      "sim.blocks_skipped:counter",      "sim.cone_nodes:counter",
      "sim.events:counter",              "sim.events_died:counter",
      "sim.fault_probes:counter",        "sim.faults_dropped:counter",
      "sim.full_passes:counter",         "sim.incr_resims:counter",
      "sim.patterns_per_second:gauge",   "sim.simd_blocks:counter",
      "sim.value_reuses:counter"};
  EXPECT_EQ(names, want);
  EXPECT_FALSE(m.contains("dd.live_nodes"));
  EXPECT_EQ(m.counter("sim.full_passes"), 2u);
  EXPECT_EQ(m.counter("sim.incr_resims"), 3u);
  EXPECT_EQ(m.counter("sim.events"), 40u);
  EXPECT_EQ(m.counter("sim.events_died"), 10u);
  EXPECT_EQ(m.counter("sim.fault_probes"), 5u);
  EXPECT_EQ(m.counter("sim.cone_nodes"), 60u);
  EXPECT_EQ(m.counter("sim.faults_dropped"), 4u);
  EXPECT_EQ(m.counter("sim.blocks_skipped"), 1u);
  EXPECT_EQ(m.counter("sim.value_reuses"), 7u);
  EXPECT_EQ(m.counter("sim.simd_blocks"), 8u);
  EXPECT_DOUBLE_EQ(m.gauge("sim.patterns_per_second"), 2048.0);
  EXPECT_EQ(m.counter("rewrite.passes"), 1u);
  EXPECT_EQ(m.counter("rewrite.roots"), 2u);
  EXPECT_EQ(m.counter("rewrite.cuts_enumerated"), 3u);
  EXPECT_EQ(m.counter("rewrite.db_hits"), 4u);
  EXPECT_EQ(m.counter("rewrite.candidates"), 5u);
  EXPECT_EQ(m.counter("rewrite.stale_skips"), 6u);
  EXPECT_EQ(m.counter("rewrite.replacements"), 7u);
  EXPECT_EQ(m.counter("rewrite.sim_rejects"), 8u);
  EXPECT_EQ(m.counter("rewrite.bdd_rejects"), 9u);
  EXPECT_EQ(m.counter("rewrite.lits_before"), 10u);
  EXPECT_EQ(m.counter("rewrite.lits_after"), 11u);
  EXPECT_EQ(m.counter("rewrite.gain_lits"), 12u);
  EXPECT_DOUBLE_EQ(m.hist_sum("rewrite.cuts_seconds"), 0.5);
  EXPECT_DOUBLE_EQ(m.hist_sum("rewrite.eval_seconds"), 0.25);

  // Row metrics: a row that never simulated or rewrote anything adds no
  // sim.* / rewrite.* entries, while dd.* is reported even for a row that
  // built no BDD.
  FlowRow busy;
  busy.sim = sim;
  busy.rewrite = rws;
  const obs::MetricsRegistry rows = collect_flow_metrics({busy, FlowRow{}});
  EXPECT_EQ(rows.counter("sim.events"), 40u);
  EXPECT_EQ(rows.counter("rewrite.gain_lits"), 12u);
  const obs::MetricsRegistry idle = collect_flow_metrics({FlowRow{}});
  EXPECT_TRUE(idle.contains("dd.cache_lookups"));
  EXPECT_TRUE(idle.contains("dd.peak_live_nodes"));
  for (const auto& e : idle.snapshot()) {
    EXPECT_NE(e.name.rfind("sim.", 0), 0u) << e.name;
    EXPECT_NE(e.name.rfind("rewrite.", 0), 0u) << e.name;
  }

  m.absorb_status(FlowStatus::ok());
  m.absorb_status(FlowStatus::degraded("factor"));
  m.absorb_status(FlowStatus::failed("verify", "boom"));
  EXPECT_EQ(m.counter("flow.rows"), 3u);
  EXPECT_EQ(m.counter("flow.ok"), 1u);
  EXPECT_EQ(m.counter("flow.degraded"), 1u);
  EXPECT_EQ(m.counter("flow.failed"), 1u);

  const std::string out = obs::format_metrics_summary(m);
  EXPECT_NE(out.find("DD kernel: 100 cache lookups (hit rate 60.0%)"),
            std::string::npos);
  EXPECT_NE(out.find("Scheduler: 2 workers, 13 tasks"), std::string::npos);
  EXPECT_NE(out.find("ext0"), std::string::npos);
  // flow.* has no block of its own (it feeds the run report); the
  // formatter renders it generically.
  EXPECT_NE(out.find("flow.rows=3"), std::string::npos);
  EXPECT_NE(out.find("Sim SIMD: 8 blocks, 2.05e+03 patterns/s"),
            std::string::npos);
  EXPECT_NE(out.find("Rewrite: 1 passes over 2 roots, 3 cuts (4 db hits), "
                     "5 candidates -> 7 applied (6 stale"),
            std::string::npos);
}

TEST(MetricsRegistry, FormatterOmitsEmptyGroupsAndRendersUnknownOnes) {
  obs::MetricsRegistry m;
  m.add("custom.counter", 7);
  const std::string out = obs::format_metrics_summary(m);
  EXPECT_EQ(out.find("DD kernel"), std::string::npos);
  EXPECT_EQ(out.find("Scheduler"), std::string::npos);
  EXPECT_NE(out.find("custom.counter=7"), std::string::npos);
}

// --- json -------------------------------------------------------------------

TEST(Json, RoundTripsAndPreservesKeyOrder) {
  obs::Json doc = obs::Json::object();
  doc["zeta"] = 1;
  doc["alpha"] = "text with \"quotes\" and\nnewline";
  doc["pi"] = 3.141592653589793;
  doc["big"] = uint64_t{1} << 40;
  doc["neg"] = -17;
  doc["flag"] = true;
  doc["nothing"] = nullptr;
  obs::Json arr = obs::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  doc["arr"] = std::move(arr);

  const std::string compact = doc.dump();
  // Insertion order, not alphabetical.
  EXPECT_LT(compact.find("zeta"), compact.find("alpha"));
  EXPECT_EQ(obs::Json::parse(compact), doc);
  EXPECT_EQ(obs::Json::parse(doc.dump(2)), doc); // pretty form too
  // Integers serialize without a decimal point.
  EXPECT_NE(compact.find("\"big\":1099511627776"), std::string::npos);
  // Doubles round-trip exactly.
  EXPECT_DOUBLE_EQ(
      obs::Json::parse(compact).get("pi").as_number(), 3.141592653589793);
}

TEST(Json, ParseErrorsCarryByteOffsets) {
  EXPECT_THROW(obs::Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{} trailing"), std::runtime_error);
  try {
    obs::Json::parse("[tru]");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(obs::Json::escape("a\tb\x01"), "a\\tb\\u0001");
  const obs::Json round = obs::Json::parse(obs::Json("a\tb\x01").dump());
  EXPECT_EQ(round.as_string(), "a\tb\x01");
}

// --- schema validation ------------------------------------------------------

TEST(Validate, AcceptsGoodAndRejectsBadDocuments) {
  const obs::Json schema = obs::Json::parse(R"({
    "type": "object",
    "required": ["name", "count", "rows"],
    "properties": {
      "name": {"type": "string"},
      "count": {"type": "integer"},
      "rows": {"type": "array", "items": {"type": "number"}}
    }
  })");
  std::vector<std::string> errors;
  EXPECT_TRUE(obs::validate_json(
      obs::Json::parse(R"({"name":"x","count":3,"rows":[1,2.5]})"), schema,
      &errors));
  EXPECT_TRUE(errors.empty());

  // Missing required key.
  EXPECT_FALSE(obs::validate_json(
      obs::Json::parse(R"({"name":"x","count":3})"), schema, &errors));
  EXPECT_NE(errors.back().find("rows"), std::string::npos);

  // "integer" rejects a fractional number.
  errors.clear();
  EXPECT_FALSE(obs::validate_json(
      obs::Json::parse(R"({"name":"x","count":3.5,"rows":[]})"), schema,
      &errors));
  EXPECT_NE(errors.back().find("count"), std::string::npos);

  // Bad array element, with its index in the path.
  errors.clear();
  EXPECT_FALSE(obs::validate_json(
      obs::Json::parse(R"({"name":"x","count":1,"rows":[1,"two"]})"), schema,
      &errors));
  EXPECT_NE(errors.back().find("rows[1]"), std::string::npos);

  // Unknown keys are allowed (additive schema evolution).
  errors.clear();
  EXPECT_TRUE(obs::validate_json(
      obs::Json::parse(R"({"name":"x","count":1,"rows":[],"extra":true})"),
      schema, &errors));
}

// --- report -----------------------------------------------------------------

/// Deterministic report document; also used to (re)generate the golden
/// file, so every value is fixed.
obs::Json golden_report() {
  FlowRow a;
  a.circuit = "rd53";
  a.num_inputs = 5;
  a.num_outputs = 3;
  a.arithmetic = true;
  a.exact_benchmark = true;
  a.base_lits = 92;
  a.base_seconds = 0.25;
  a.ours_lits = 62;
  a.ours_seconds = 0.5;
  a.base_gates = 47;
  a.base_map_lits = 91;
  a.ours_gates = 24;
  a.ours_map_lits = 47;
  a.base_power = 1.5;
  a.ours_power = 1.0;
  a.ours_polls = 1000;
  a.base_polls = 500;
  a.rewrite.passes = 2;
  a.rewrite.roots = 30;
  a.rewrite.cuts_enumerated = 120;
  a.rewrite.db_hits = 90;
  a.rewrite.candidates = 6;
  a.rewrite.stale_skips = 1;
  a.rewrite.replacements = 4;
  a.rewrite.sim_rejects = 0;
  a.rewrite.bdd_rejects = 0;
  a.rewrite.lits_before = 70;
  a.rewrite.lits_after = 62;
  a.rewrite.gain_lits = 8;
  a.stages.add("spec-bdd", 0.125, 2);
  a.stages.add("factor", 0.25, 8);
  a.row_seconds = 0.75;

  FlowRow b;
  b.circuit = "t481";
  b.num_inputs = 16;
  b.num_outputs = 1;
  b.ours_status = FlowStatus::degraded("polarity-search", "Deadline");
  b.ladder_descents = 1;
  b.row_seconds = 0.125;

  obs::ReportBuilder rb("table2", 2);
  rb.add_row(flow_row_json(a));
  rb.add_row(flow_row_json(b));
  obs::MetricsRegistry m;
  m.add("dd.cache_lookups", 1234);
  m.set_max("dd.peak_live_nodes", 42.0);
  m.observe("stage.factor", 0.25);
  rb.set_metrics(m);
  obs::Tracer::Summary ts;
  ts.events = 4;
  ts.dropped = 0;
  ts.threads = 2;
  ts.span_seconds = 1.5;
  ts.wall_seconds = 2.0;
  rb.set_trace(ts, 4.0, "t.json");
  // Hand-built attribution tree: pins the profile block's serialization
  // (incl/excl ms, optional gauges, nested children) without depending on
  // real timings.
  obs::Profiler::Node proot;
  proot.name = "root";
  proot.calls = 0;
  proot.incl_ns = 2'000'000;
  proot.excl_ns = 0;
  obs::Profiler::Node stage;
  stage.name = "flow:rd53";
  stage.calls = 1;
  stage.incl_ns = 2'000'000;
  stage.excl_ns = 500'000;
  stage.peak_rss_mb = 64.0;
  stage.dd_live_nodes = 42.0;
  obs::Profiler::Node leaf;
  leaf.name = "factor";
  leaf.calls = 8;
  leaf.incl_ns = 1'500'000;
  leaf.excl_ns = 1'500'000;
  stage.children.push_back(leaf);
  proot.children.push_back(stage);
  rb.set_profile(proot, "p.folded");
  return rb.finish(3.25);
}

TEST(Report, BuilderComputesWorstStatusAndValidatesAgainstSchema) {
  const obs::Json doc = golden_report();
  EXPECT_EQ(doc.get("worst_status").as_string(), "degraded");
  EXPECT_EQ(doc.get("rows").size(), 2u);
  EXPECT_DOUBLE_EQ(doc.get("trace").get("coverage_pct").as_number(), 50.0);

  const obs::Json schema = obs::Json::parse(obs::read_file(
      std::string(RMSYN_SOURCE_DIR) + "/data/report_schema.json"));
  std::vector<std::string> errors;
  EXPECT_TRUE(obs::validate_json(doc, schema, &errors));
  for (const auto& e : errors) ADD_FAILURE() << e;
}

TEST(Report, GoldenFilePinsTheSerialization) {
  // Byte-for-byte stability of the serialized report is the schema
  // contract: if this fails, either fix the regression or consciously
  // regenerate the golden (and bump kReportSchemaVersion on incompatible
  // changes). Regenerate with RMSYN_REGEN_GOLDEN=1 in the environment.
  const std::string path =
      std::string(RMSYN_SOURCE_DIR) + "/tests/golden/report_golden.json";
  if (std::getenv("RMSYN_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << golden_report().dump(2);
    return;
  }
  const std::string golden = obs::read_file(path);
  EXPECT_EQ(golden_report().dump(2), golden);
}

TEST(Report, MetricsJsonCarriesKindSpecificFields) {
  obs::MetricsRegistry m;
  m.add("c", 3);
  m.set("g", 1.5);
  m.observe("h", 2.0);
  m.observe("h", 4.0);
  const obs::Json j = obs::metrics_json(m);
  EXPECT_EQ(j.get("c").get("kind").as_string(), "counter");
  EXPECT_DOUBLE_EQ(j.get("c").get("count").as_number(), 3.0);
  EXPECT_EQ(j.get("g").get("kind").as_string(), "gauge");
  EXPECT_EQ(j.get("h").get("kind").as_string(), "histogram");
  EXPECT_DOUBLE_EQ(j.get("h").get("mean").as_number(), 3.0);
}

// --- FlowStatus ordering (exit codes / worst_status) ------------------------

TEST(FlowStatus, SeverityOrdersOkDegradedFailed) {
  const FlowStatus ok = FlowStatus::ok();
  const FlowStatus deg = FlowStatus::degraded("factor");
  const FlowStatus fail = FlowStatus::failed("verify", "boom");
  EXPECT_LT(ok.severity(), deg.severity());
  EXPECT_LT(deg.severity(), fail.severity());

  EXPECT_EQ(worse(ok, deg).severity(), deg.severity());
  EXPECT_EQ(worse(fail, deg).severity(), fail.severity());
  EXPECT_EQ(worse(ok, ok).severity(), ok.severity());
  // worse() is symmetric in severity.
  EXPECT_EQ(worse(deg, fail).severity(), worse(fail, deg).severity());
}

TEST(FlowStatus, FlowRowWorstStatusPicksTheWorseFlow) {
  FlowRow row;
  row.ours_status = FlowStatus::degraded("factor");
  row.base_status = FlowStatus::ok();
  EXPECT_TRUE(row.worst_status().is_degraded());
  row.base_status = FlowStatus::failed("baseline-verify", "x");
  EXPECT_TRUE(row.worst_status().is_failed());
}

// --- flow integration -------------------------------------------------------

TEST(FlowIntegration, RunFlowFillsStageBreakdownAndRowJson) {
  const FlowRow row = run_flow("majority");
  ASSERT_FALSE(row.stages.empty());
  // Both flows contribute their stages.
  EXPECT_NE(row.stages.find("spec-bdd"), nullptr);
  EXPECT_NE(row.stages.find("baseline-simplify"), nullptr);
  EXPECT_NE(row.stages.find("mapping"), nullptr);
  EXPECT_NE(row.stages.find("power"), nullptr);
  EXPECT_GT(row.stages.total_seconds(), 0.0);

  const obs::Json j = flow_row_json(row);
  const obs::Json schema = obs::Json::parse(obs::read_file(
      std::string(RMSYN_SOURCE_DIR) + "/data/report_schema.json"));
  std::vector<std::string> errors;
  EXPECT_TRUE(obs::validate_json(
      j, schema.get("properties").get("rows").get("items"), &errors));
  for (const auto& e : errors) ADD_FAILURE() << e;

  obs::MetricsRegistry m = collect_flow_metrics({row});
  EXPECT_EQ(m.counter("flow.rows"), 1u);
  EXPECT_GT(m.counter("dd.cache_lookups"), 0u);
  // The row's breakdown is the one stage table; the registry keeps no copy.
  EXPECT_FALSE(m.contains("stage.spec-bdd"));
}

TEST(FlowIntegration, GovernedFlowReportsPolls) {
  FlowOptions opt;
  opt.limits.step_limit = 1u << 22; // generous: never trips on majority
  const FlowRow row = run_flow("majority", opt);
  EXPECT_GT(row.ours_polls, 0u);
  EXPECT_GT(row.base_polls, 0u);
  EXPECT_TRUE(row.worst_status().is_ok());
}

// --- output sink ------------------------------------------------------------

TEST(OutputSink, ConcurrentWritersNeverInterleaveLines) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  {
    obs::OutputSink sink(f);
    constexpr int kThreads = 8, kLines = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&sink, t] {
        for (int i = 0; i < kLines; ++i)
          sink.printf("writer-%d line %d end\n", t, i);
      });
    for (auto& t : threads) t.join();
  }
  std::rewind(f);
  char line[256];
  int count = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++count;
    std::string s(line);
    // Every line must be exactly "writer-T line I end".
    EXPECT_EQ(s.rfind("writer-", 0), 0u) << s;
    EXPECT_NE(s.find(" end\n"), std::string::npos) << s;
  }
  EXPECT_EQ(count, 8 * 50);
  std::fclose(f);
}

// --- heartbeat --------------------------------------------------------------

TEST(Heartbeat, EmitsProgressLinesAndTogglesBoard) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  obs::OutputSink sink(f);
  EXPECT_FALSE(ProgressBoard::active());
  {
    obs::Heartbeat hb(sink, 0.01);
    EXPECT_TRUE(ProgressBoard::active());
    ProgressBoard::instance().reset(5);
    ProgressBoard::instance().rows_done.store(2);
    ProgressBoard::instance().set_circuit("rd53");
    ProgressBoard::instance().set_stage("factor");
    ProgressBoard::instance().note_live_nodes(123);
    // Wait until at least one beat lands (bounded).
    for (int i = 0; i < 500 && hb.beats() == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GT(hb.beats(), 0u);
    hb.stop();
  }
  EXPECT_FALSE(ProgressBoard::active());
  std::rewind(f);
  std::string all;
  char buf[512];
  while (std::fgets(buf, sizeof buf, f) != nullptr) all += buf;
  std::fclose(f);
  EXPECT_NE(all.find("[hb "), std::string::npos);
  EXPECT_NE(all.find("rows 2/5"), std::string::npos);
  EXPECT_NE(all.find("circuit=rd53"), std::string::npos);
  EXPECT_NE(all.find("stage=factor"), std::string::npos);
  EXPECT_NE(all.find("live nodes 123"), std::string::npos);
}

} // namespace
} // namespace rmsyn
