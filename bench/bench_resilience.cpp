// Resilience overhead bench: runs a batch sweep once with the crash-safety
// plumbing off (no journal, no retries, no fault-plan hooks armed) and once
// with all of it on (journal appends + fsync per row, retry loop armed with
// --retries 2 that never fires, error-taxonomy classification active), and
// reports the wall-clock overhead. The acceptance bar is < 2%: the
// resilience layer must be free when nothing fails.
//
// Emits a machine-readable BENCH_resilience.json for CI tracking.
//
// Usage: bench_resilience [--out FILE] [circuit ...]
//        (default: BENCH_resilience.json, all Table-2 circuits)
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sched/batch.hpp"

namespace {

std::size_t total_lits(const std::vector<rmsyn::Benchmark>& benches,
                       const rmsyn::BatchOptions& opt) {
  rmsyn::BatchRunner runner(opt);
  std::size_t lits = 0;
  for (const rmsyn::FlowRow& row : runner.run(benches).rows)
    lits += row.ours_lits;
  return lits;
}

} // namespace

int main(int argc, char** argv) {
  using namespace rmsyn;
  const bench::Args args =
      bench::parse_args_or_exit(argc, argv, "BENCH_resilience.json", true);
  constexpr double kMaxOverheadPct = 2.0;

  std::vector<Benchmark> benches;
  for (const auto& n : args.names.empty() ? benchmark_names() : args.names)
    benches.push_back(make_benchmark(n));

  BatchOptions plain;
  plain.flow.run_mapping = false;
  plain.flow.run_power = false;

  BatchOptions armed = plain;
  armed.retries = 2; // retry loop active per row; never fires on a clean run
  const std::string journal_path = args.out + ".journal.tmp";
  armed.journal_path = journal_path;

  // Min of 3 interleaved runs per config: robust against noise.
  std::size_t plain_lits = 0, armed_lits = 0;
  const auto [p, a] = bench::sample(
      3, bench::Warmup::None,
      [&] { plain_lits = total_lits(benches, plain); },
      [&] {
        std::remove(journal_path.c_str()); // each armed rep journals fresh
        armed_lits = total_lits(benches, armed);
      });
  std::remove(journal_path.c_str());
  const double plain_seconds = p.min(), armed_seconds = a.min();

  const bool lits_match = plain_lits == armed_lits;
  const double overhead_pct =
      plain_seconds > 0 ? 100.0 * (armed_seconds / plain_seconds - 1.0) : 0.0;
  std::printf("== Resilience overhead (batch sweep, both flows) ==\n");
  std::printf("circuits: %zu   plain %.3fs   journal+retries %.3fs\n",
              benches.size(), plain_seconds, armed_seconds);

  // Journaling + retry plumbing must not change results and must stay
  // under the overhead budget on a clean run.
  bench::Gates gates;
  gates.check(lits_match, "arming the resilience layer leaves every result "
                          "as is");
  gates.check(overhead_pct <= kMaxOverheadPct,
              "resilience overhead %.2f%% (budget %.2f%%)", overhead_pct,
              kMaxOverheadPct);
  return bench::finish(args,
                       bench::bench_doc("resilience",
                                        {{"overhead_pct", overhead_pct},
                                         {"plain_seconds", plain_seconds},
                                         {"armed_seconds", armed_seconds},
                                         {"circuits", benches.size()},
                                         {"results_identical", lits_match}}),
                       gates);
}
