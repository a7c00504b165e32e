// Governor overhead bench: runs the Table-2 sweep (both flows, pre-mapping)
// once with no governor attached and once under a governor whose budgets can
// never trip, and reports the wall-clock overhead of the cooperative polling
// it adds. The acceptance bar for the governed build is < 2% overhead.
//
// Emits a machine-readable BENCH_governor.json for CI tracking.
//
// Usage: bench_governor [--out FILE] [circuit ...]
//        (default: BENCH_governor.json, all Table-2 circuits)
#include <cstdio>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  const bench::Args args =
      bench::parse_args_or_exit(argc, argv, "BENCH_governor.json", true);
  const std::vector<std::string> names =
      args.names.empty() ? benchmark_names() : args.names;
  constexpr double kMaxOverheadPct = 2.0;

  FlowOptions plain;
  plain.run_mapping = false;
  plain.run_power = false;

  FlowOptions governed = plain;
  // A budget that can never trip, so every poll site stays on its hot path
  // — this measures pure instrumentation cost, not degradation.
  governed.limits.deadline_seconds = 1e9;
  governed.limits.node_limit = std::size_t{1} << 60;

  std::printf("== Governor overhead (Table-2 sweep, both flows) ==\n");
  std::printf("%-10s %10s %10s %9s\n", "circuit", "plain(s)", "governed",
              "overhead");
  obs::Json results = obs::Json::array();
  double sum_plain = 0, sum_governed = 0;
  bool lits_match = true;
  for (const auto& name : names) {
    std::size_t plain_lits = 0, governed_lits = 0;
    // Min of 3 interleaved runs per config: robust against noise.
    const auto [p, g] = bench::sample(
        3, bench::Warmup::None,
        [&] { plain_lits = run_flow(name, plain).ours_lits; },
        [&] { governed_lits = run_flow(name, governed).ours_lits; });
    const double plain_s = p.min(), governed_s = g.min();
    sum_plain += plain_s;
    sum_governed += governed_s;
    lits_match &= plain_lits == governed_lits;
    std::printf("%-10s %10.4f %10.4f %8.2f%%%s\n", name.c_str(), plain_s,
                governed_s,
                plain_s > 0 ? 100.0 * (governed_s / plain_s - 1.0) : 0.0,
                plain_lits == governed_lits ? "" : "  LITS DIFFER");
    results.push_back(bench::object({{"name", name},
                                     {"plain_seconds", plain_s},
                                     {"governed_seconds", governed_s},
                                     {"lits", governed_lits}}));
  }
  const double overhead_pct =
      sum_plain > 0 ? 100.0 * (sum_governed / sum_plain - 1.0) : 0.0;
  std::printf("\nTotal: plain %.3fs, governed %.3fs\n", sum_plain,
              sum_governed);

  // The governor must be observation-only (lits identical) AND its polling
  // must stay under the overhead budget.
  bench::Gates gates;
  gates.check(lits_match, "an unlimited governor leaves every result as is");
  gates.check(overhead_pct <= kMaxOverheadPct,
              "governor overhead %.2f%% (budget %.2f%%)", overhead_pct,
              kMaxOverheadPct);
  return bench::finish(args,
                       bench::bench_doc("governor",
                                        {{"overhead_pct", overhead_pct},
                                         {"plain_seconds", sum_plain},
                                         {"governed_seconds", sum_governed},
                                         {"results_identical", lits_match},
                                         {"results", results}}),
                       gates);
}
