// Extension experiment (beyond the paper, in its cited direction [1]/[16]):
// Kronecker FDD synthesis — per-variable choice among Shannon and the two
// Davio expansions — against the paper's pure-FPRM flow. Expected shape:
// ties on arithmetic circuits (Davio is right there), wins on control-
// dominated circuits where pure AND/XOR forms blow up.
//
// Usage: bench_extension_kfdd [circuit ...]
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "core/redundancy.hpp"
#include "core/synth.hpp"
#include "fdd/kfdd.hpp"
#include "harness.hpp"
#include "network/stats.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::vector<std::string> names =
      bench::parse_args_or_exit(argc, argv, "", true).names;
  if (names.empty())
    names = {"z4ml", "adr4", "rd53",  "rd84", "t481",  "majority", "cm85a",
             "cmb",  "co14", "pcle",  "m181", "pm1",   "i1",       "shift",
             "cc",   "f2",   "squar5"};

  std::printf("== Extension: Kronecker FDD (Shannon+Davio mix) vs the "
              "paper's FPRM flow ==\n");
  std::printf("%-10s | %9s | %9s %9s | %s\n", "circuit", "FPRM lits",
              "KFDD lits", "+redund.", "Shannon vars chosen");

  for (const auto& name : names) {
    const Benchmark bench = make_benchmark(name);
    SynthReport rep;
    (void)synthesize(bench.spec, {}, &rep);

    std::vector<Expansion> chosen;
    Network kfdd = kfdd_synthesize(bench.spec, {}, &chosen);
    const std::size_t kfdd_lits = network_stats(kfdd).lits;
    // The Section-4 pass applies to KFDD networks too (pattern sets fall
    // back to random + exact decisions).
    kfdd = remove_xor_redundancy(kfdd, {}, {}, nullptr);
    const std::size_t kfdd_red_lits = network_stats(kfdd).lits;

    int shannon = 0;
    for (const auto e : chosen)
      if (e == Expansion::Shannon) ++shannon;
    std::printf("%-10s | %9zu | %9zu %9zu | %d of %zu\n", name.c_str(),
                rep.stats.lits, kfdd_lits, kfdd_red_lits, shannon,
                chosen.size());
  }
  std::printf("\n(The production flow could take min(FPRM, KFDD) per "
              "circuit; this table shows why the paper's Davio-only choice "
              "is the right default for arithmetic.)\n");
  return 0;
}
