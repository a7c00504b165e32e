// Ablation (Section 3): factorization Method 1 (cube method) vs Method 2
// (OFDD construction). The paper: "the results are comparable but the
// second method has better results on a few more test cases."
//
// Usage: bench_ablation_methods [circuit ...]
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::vector<std::string> names =
      bench::parse_args_or_exit(argc, argv, "", true).names;
  if (names.empty())
    names = {"z4ml", "adr4", "add6",  "rd53",   "rd73", "rd84",  "9sym",
             "t481", "f2",   "mlp4",  "squar5", "sqr6", "cm82a", "majority",
             "cmb",  "co14", "my_adder"};

  std::printf("== Ablation: cube method (1) vs OFDD method (2) ==\n");
  std::printf("%-10s | %9s %9s | %9s %9s | %s\n", "circuit", "M1 lits",
              "M1 t(s)", "M2 lits", "M2 t(s)", "winner");

  int m1_wins = 0, m2_wins = 0, ties = 0;
  for (const auto& name : names) {
    const Benchmark bench = make_benchmark(name);
    SynthOptions o1, o2;
    o1.method = FactorMethod::Cubes;
    o2.method = FactorMethod::Ofdd;
    SynthReport r1, r2;
    (void)synthesize(bench.spec, o1, &r1);
    (void)synthesize(bench.spec, o2, &r2);
    const char* winner = "tie";
    if (r1.stats.lits < r2.stats.lits) {
      winner = "M1";
      ++m1_wins;
    } else if (r2.stats.lits < r1.stats.lits) {
      winner = "M2";
      ++m2_wins;
    } else {
      ++ties;
    }
    std::printf("%-10s | %9zu %9.3f | %9zu %9.3f | %s\n", name.c_str(),
                r1.stats.lits, r1.seconds, r2.stats.lits, r2.seconds, winner);
  }
  std::printf("\nMethod 1 wins: %d, Method 2 wins: %d, ties: %d "
              "(paper: comparable, Method 2 better on a few more cases)\n",
              m1_wins, m2_wins, ties);
  return 0;
}
