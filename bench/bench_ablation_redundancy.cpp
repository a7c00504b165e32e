// Ablation (Section 4): what the XOR redundancy-removal pass contributes,
// and how the result depends on the XOR cost assumption. The paper's core
// argument is that a direct AND/XOR translation "often results in excessive
// area, mainly due to the large area cost of XOR gates" — redundancy
// removal converts many XORs to single AND/OR gates.
//
// Usage: bench_ablation_redundancy [circuit ...]
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "harness.hpp"
#include "network/stats.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::vector<std::string> names =
      bench::parse_args_or_exit(argc, argv, "", true).names;
  if (names.empty())
    names = {"z4ml", "adr4", "add6", "rd53",   "rd84",     "9sym", "t481",
             "mlp4", "cmb",  "co14", "squar5", "majority", "cm85a"};

  std::printf("== Ablation: redundancy removal on/off + XOR-cost "
              "sensitivity ==\n");
  std::printf("%-10s | %8s %8s %7s | %6s %6s | %s\n", "circuit", "off lits",
              "on lits", "saved%", "xor2-", "xor2+",
              "lits at xor cost c=1..4 (on)");

  for (const auto& name : names) {
    const Benchmark bench = make_benchmark(name);
    SynthOptions on, off;
    off.run_redundancy_removal = false;
    SynthReport ron, roff;
    const Network net_on = synthesize(bench.spec, on, &ron);
    (void)synthesize(bench.spec, off, &roff);
    const double saved =
        roff.stats.lits == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(ron.stats.lits) /
                                 static_cast<double>(roff.stats.lits));
    // XOR-cost sensitivity: the paper's metric charges 3 AND/OR gates per
    // XOR2; recompute the gate count under c = 1..4.
    const auto s = network_stats(net_on);
    const std::size_t andor = s.gates2 - 3 * s.num_xor2;
    std::printf("%-10s | %8zu %8zu %6.1f%% | %6zu %6zu |", name.c_str(),
                roff.stats.lits, ron.stats.lits, saved, roff.stats.num_xor2,
                ron.stats.num_xor2);
    for (std::size_t c = 1; c <= 4; ++c)
      std::printf(" %zu", 2 * (andor + c * s.num_xor2));
    std::printf("\n");
  }
  std::printf("\n(xor2-/xor2+ = XOR2 count without/with the Section-4 pass; "
              "the pass may only remove XORs, never add them)\n");
  return 0;
}
