// Extension experiment (Section 3/6 future work, after Sasao [17][18]):
// general ESOP minimization (exorlink) instead of fixed-polarity forms.
// ESOPs are a strict superset of FPRM forms, so the cube counts can only
// shrink; the question the paper leaves open is how much that buys after
// factoring and redundancy removal.
//
// Usage: bench_extension_esop [circuit ...]
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "core/redundancy.hpp"
#include "core/synth.hpp"
#include "fdd/esop.hpp"
#include "harness.hpp"
#include "network/stats.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::vector<std::string> names =
      bench::parse_args_or_exit(argc, argv, "", true).names;
  if (names.empty())
    names = {"z4ml", "adr4", "rd53", "rd73", "rd84",   "9sym",     "t481",
             "f2",   "cmb",  "co14", "f51m", "squar5", "majority", "cm85a",
             "bcd-div3"};

  std::printf("== Extension: ESOP (exorlink) vs fixed-polarity FPRM ==\n");
  std::printf("%-10s | %10s %10s | %9s | %9s %9s\n", "circuit", "FPRM cubes",
              "ESOP cubes", "FPRM lits", "ESOP lits", "+redund.");

  for (const auto& name : names) {
    const Benchmark bench = make_benchmark(name);
    SynthReport rep;
    (void)synthesize(bench.spec, {}, &rep);
    std::size_t fprm_cubes = 0;
    for (const auto c : rep.fprm_cube_counts) fprm_cubes += c;

    std::vector<std::size_t> esop_counts;
    Network esop_net = esop_synthesize(bench.spec, {}, &esop_counts);
    std::size_t esop_cubes = 0;
    for (const auto c : esop_counts) esop_cubes += c;
    const std::size_t esop_lits = network_stats(esop_net).lits;
    esop_net = remove_xor_redundancy(esop_net, {}, {}, nullptr);
    const std::size_t esop_red = network_stats(esop_net).lits;

    std::printf("%-10s | %10zu %10zu | %9zu | %9zu %9zu\n", name.c_str(),
                fprm_cubes, esop_cubes, rep.stats.lits, esop_lits, esop_red);
  }
  std::printf("\n(FPRM numbers are the full flow's — including cross-output "
              "sharing and pattern-driven redundancy removal; the ESOP\n"
              "column factors each output independently, so its wins show "
              "up mostly on single-output mixed-polarity functions.)\n");
  return 0;
}
