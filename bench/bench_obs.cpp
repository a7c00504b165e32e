// Observability overhead bench: proves the tracer costs nothing when off.
//
// Four measurements:
//  1. micro: cost of a *disabled* RMSYN_SPAN in ns. Since the profiler
//     landed, the span ctor gate is `Tracer::enabled() || Profiler::enabled()`
//     (two relaxed loads + branch), so this number covers the profiler's
//     disabled path too; measured over tens of millions of iterations;
//  2. micro: cost of one bucketed histogram observe_value() in ns — the
//     percentile machinery's per-sample price;
//  3. span + sample census: how many spans one traced Table-2 flow emits
//     and how many histogram samples its metrics collection records —
//     taken from a real traced run, not estimated;
//  4. macro: min-of-3 interleaved flow wall times with tracing off vs on,
//     plus an off-vs-profiled pair for the profiler's enabled cost (the
//     traced and profiled times include switching the recorder on and off).
//
// The gate combines 1-3: extrapolated disabled-site cost per flow
// (spans * ns_per_disabled_span + samples * ns_per_observe) must stay
// under 1% of the plain flow wall time. The macro numbers are reported for
// context but not gated — enabling tracing or profiling is allowed to cost
// more; the contract is that *not* using them is free and that bucketed
// percentiles stay cheap.
//
// Emits a machine-readable BENCH_obs.json for CI tracking.
//
// Usage: bench_obs [--out FILE] [circuit ...]
//        (default: BENCH_obs.json, all Table-2 circuits)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace {

/// Histogram observations one flow's metrics collection records (the
/// bucketed path: stage.* histograms, flow.row_seconds, rewrite phase
/// timings). This is the census the observe_value() micro-cost multiplies.
uint64_t hist_sample_census(const rmsyn::FlowRow& row) {
  const rmsyn::obs::MetricsRegistry m = rmsyn::collect_flow_metrics({row});
  uint64_t samples = 0;
  for (const auto& e : m.snapshot())
    if (e.v.kind == rmsyn::obs::MetricKind::Histogram) samples += e.v.count;
  return samples;
}

// Cost of one disabled span site. The span name is a runtime value so the
// compiler cannot fold the whole loop away; the check inside Span's ctor
// (one relaxed load) is exactly what every RMSYN_SPAN site pays when
// tracing is off.
double disabled_span_ns(uint64_t iters) {
  const char* volatile vname = "bench-disabled";
  rmsyn::Stopwatch sw;
  for (uint64_t i = 0; i < iters; ++i) {
    RMSYN_SPAN(vname);
  }
  const double s = sw.seconds();
  return 1e9 * s / static_cast<double>(iters);
}

// Cost of one bucketed observe_value(): bucket_for's log10 + the vector
// increment, over a spread of magnitudes so branch prediction cannot pin
// one bucket. Measured on a local MetricValue — same code path the
// registry's observe() takes under its lock.
double observe_value_ns(uint64_t iters) {
  rmsyn::obs::MetricValue h;
  h.kind = rmsyn::obs::MetricKind::Histogram;
  volatile double sink = 0.0;
  rmsyn::Stopwatch sw;
  for (uint64_t i = 0; i < iters; ++i) {
    h.observe_value(1e-6 * static_cast<double>((i % 1000) + 1));
  }
  const double s = sw.seconds();
  sink = h.sum;
  (void)sink;
  return 1e9 * s / static_cast<double>(iters);
}

} // namespace

int main(int argc, char** argv) {
  using namespace rmsyn;
  const bench::Args args =
      bench::parse_args_or_exit(argc, argv, "BENCH_obs.json", true);
  const std::vector<std::string> names =
      args.names.empty() ? benchmark_names() : args.names;
  constexpr double kMaxOverheadPct = 1.0;

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.reset();

  obs::Profiler& prof = obs::Profiler::instance();
  prof.disable();
  prof.reset();

  // --- 1. micro: disabled-span cost (tracer AND profiler branch) ---------
  constexpr uint64_t kMicroIters = 50'000'000;
  const double ns_per_span =
      bench::sample(3, bench::Warmup::None,
                    [] { return disabled_span_ns(kMicroIters); })[0]
          .min();
  std::printf("== Observability overhead ==\n");
  std::printf("disabled RMSYN_SPAN: %.3f ns/site (min of 3 x %lluM iters; "
              "covers tracer+profiler gate)\n",
              ns_per_span,
              static_cast<unsigned long long>(kMicroIters / 1'000'000));

  // --- 2. micro: bucketed histogram observe cost -------------------------
  constexpr uint64_t kObserveIters = 10'000'000;
  const double ns_per_observe =
      bench::sample(3, bench::Warmup::None,
                    [] { return observe_value_ns(kObserveIters); })[0]
          .min();
  std::printf("bucketed observe_value: %.3f ns/sample (min of 3 x %lluM "
              "iters)\n",
              ns_per_observe,
              static_cast<unsigned long long>(kObserveIters / 1'000'000));

  // --- 3+4. per-circuit: span/sample census and off/on wall times ---------
  FlowOptions opt;
  opt.run_mapping = false;
  opt.run_power = false;

  std::printf("%-10s %10s %10s %10s %8s %8s %12s\n", "circuit", "off(s)",
              "on(s)", "prof(s)", "spans", "samples", "off-cost(%)");
  obs::Json results = obs::Json::array();
  double sum_plain = 0, sum_traced = 0, sum_profiled = 0;
  uint64_t sum_spans = 0, sum_samples = 0;
  bool lits_match = true;
  double worst_disabled_pct = 0.0;
  for (const auto& name : names) {
    FlowRow plain_row;
    std::size_t traced_lits = 0;
    uint64_t spans = 0; // events one traced run emitted
    const auto [p, t, f] = bench::sample(
        3, bench::Warmup::None, [&] { plain_row = run_flow(name, opt); },
        [&] {
          tracer.reset();
          tracer.enable();
          traced_lits = run_flow(name, opt).ours_lits;
          tracer.disable();
          spans = tracer.summary().events;
          tracer.reset();
        },
        [&] {
          prof.reset();
          prof.enable();
          (void)run_flow(name, opt);
          prof.disable();
          prof.reset();
        });
    const double plain_s = p.min(), traced_s = t.min(), profiled_s = f.min();
    const uint64_t hist_samples = hist_sample_census(plain_row);
    sum_plain += plain_s;
    sum_traced += traced_s;
    sum_profiled += profiled_s;
    sum_spans += spans;
    sum_samples += hist_samples;
    lits_match &= plain_row.ours_lits == traced_lits;
    // Extrapolated cost of the disabled sites this circuit's flow passes:
    // every recorded span is one site that, when tracing is off, pays the
    // measured per-site cost, and every histogram sample pays the bucketed
    // observe cost (metrics are always collected).
    const double site_seconds =
        1e-9 * (ns_per_span * static_cast<double>(spans) +
                ns_per_observe * static_cast<double>(hist_samples));
    const double pct = plain_s > 0 ? 100.0 * site_seconds / plain_s : 0.0;
    worst_disabled_pct = std::max(worst_disabled_pct, pct);
    std::printf("%-10s %10.4f %10.4f %10.4f %8llu %8llu %11.4f%%%s\n",
                name.c_str(), plain_s, traced_s, profiled_s,
                static_cast<unsigned long long>(spans),
                static_cast<unsigned long long>(hist_samples), pct,
                plain_row.ours_lits == traced_lits ? "" : "  LITS DIFFER");
    results.push_back(bench::object({{"name", name},
                                     {"plain_seconds", plain_s},
                                     {"traced_seconds", traced_s},
                                     {"profiled_seconds", profiled_s},
                                     {"spans", spans},
                                     {"hist_samples", hist_samples},
                                     {"lits", traced_lits}}));
  }
  const double total_site_seconds =
      1e-9 * (ns_per_span * static_cast<double>(sum_spans) +
              ns_per_observe * static_cast<double>(sum_samples));
  const double disabled_pct =
      sum_plain > 0 ? 100.0 * total_site_seconds / sum_plain : 0.0;
  const double enabled_pct =
      sum_plain > 0 ? 100.0 * (sum_traced / sum_plain - 1.0) : 0.0;
  const double profiled_pct =
      sum_plain > 0 ? 100.0 * (sum_profiled / sum_plain - 1.0) : 0.0;
  std::printf("\nTotal: off %.3fs, traced %.3fs (+%.2f%%), profiled %.3fs "
              "(+%.2f%%)\n",
              sum_plain, sum_traced, enabled_pct, sum_profiled, profiled_pct);
  std::printf("Disabled-obs cost: %llu spans x %.3f ns + %llu samples x "
              "%.3f ns = %.1f us over %.3fs\n",
              static_cast<unsigned long long>(sum_spans), ns_per_span,
              static_cast<unsigned long long>(sum_samples), ns_per_observe,
              1e6 * total_site_seconds, sum_plain);

  // Tracing-off must be free (extrapolated site cost under budget) and
  // observation-only (identical literal counts traced vs not).
  bench::Gates gates;
  gates.check(lits_match, "enabling the tracer leaves every result as is");
  gates.check(disabled_pct <= kMaxOverheadPct,
              "disabled-obs overhead %.4f%% (budget %.2f%%)", disabled_pct,
              kMaxOverheadPct);
  return bench::finish(
      args,
      bench::bench_doc("obs",
                       {{"disabled_span_ns", ns_per_span},
                        {"observe_value_ns", ns_per_observe},
                        {"disabled_overhead_pct", disabled_pct},
                        {"worst_circuit_overhead_pct", worst_disabled_pct},
                        {"enabled_overhead_pct", enabled_pct},
                        {"profiled_overhead_pct", profiled_pct},
                        {"plain_seconds", sum_plain},
                        {"traced_seconds", sum_traced},
                        {"profiled_seconds", sum_profiled},
                        {"total_spans", sum_spans},
                        {"total_hist_samples", sum_samples},
                        {"results_identical", lits_match},
                        {"results", results}}),
      gates);
}
