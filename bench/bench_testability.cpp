// Sections 1/5/6 testability claims: the synthesized networks are
// irredundant and the FPRM-derived pattern set (AZ ∪ AO ∪ OC ∪ SA1) is a
// complete single-stuck-at test set, derived without any test generation.
//
// Usage: bench_testability [circuit ...]
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/script.hpp"
#include "benchgen/spec.hpp"
#include "core/redundancy.hpp"
#include "core/synth.hpp"
#include "harness.hpp"
#include "testability/faults.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::vector<std::string> names =
      bench::parse_args_or_exit(argc, argv, "", true).names;
  if (names.empty())
    names = {"z4ml", "adr4", "rd53", "rd73", "majority", "t481",
             "cm82a", "f2",   "cmb",  "co14"};

  std::printf("== Testability: FPRM pattern sets as complete stuck-at test "
              "sets ==\n");
  std::printf("%-10s | %8s %8s %9s | %10s | %9s\n", "circuit", "faults",
              "patterns", "coverage", "irredundant", "base cov");

  for (const auto& name : names) {
    const Benchmark bench = make_benchmark(name);
    SynthReport rep;
    const Network ours = synthesize(bench.spec, {}, &rep);
    const PatternSet tests = fprm_pattern_set(
        ours.pi_count(), rep.forms, /*include_sa1=*/true, std::size_t{1} << 16);
    const auto sim = fault_simulate(ours, tests);
    const bool irr = is_irredundant(ours);

    // For contrast: the same-size random pattern set on the baseline
    // network (conventional flows have no natural test set).
    BaselineReport brep;
    const Network base = baseline_synthesize(bench.spec, {}, &brep);
    const auto base_sim = fault_simulate(
        base, random_patterns(base.pi_count(), tests.num_patterns, 1234));

    std::printf("%-10s | %8zu %8zu %8.1f%% | %10s | %8.1f%%\n", name.c_str(),
                sim.total, tests.num_patterns, 100.0 * sim.coverage(),
                irr ? "yes" : "NO", 100.0 * base_sim.coverage());
  }
  std::printf("\n(paper: the method produces irredundant networks with a "
              "complete single-stuck-at test set derived from the FPRM "
              "cubes)\n");
  return 0;
}
