// Ablation (implementation choice): the spectrum-friendly PI order.
//
// The OFDD construction shares subnetworks across outputs only when carry-
// like variables sit below the per-output variables in the decision-diagram
// order. This harness runs the flow with the reach heuristic disabled on an
// adversarially permuted spec (reverse-reach order) against the default
// flow, quantifying what the ordering contributes — for ripple adders this
// is the difference between linear and quadratic cost.
//
// Usage: bench_ablation_order [circuit ...]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "harness.hpp"
#include "network/transform.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::vector<std::string> names =
      bench::parse_args_or_exit(argc, argv, "", true).names;
  if (names.empty())
    names = {"z4ml", "adr4", "add6", "my_adder", "mlp4", "sqr6",
             "rd53", "rd84", "9sym", "t481",     "cm85a"};

  std::printf("== Ablation: adversarial PI order (heuristic off) vs the "
              "default flow ==\n");
  std::printf("%-10s | %13s | %12s | %s\n", "circuit", "reversed lits",
              "default lits", "ordering gain");

  for (const auto& name : names) {
    const Benchmark bench = make_benchmark(name);

    SynthReport default_rep;
    (void)synthesize(bench.spec, {}, &default_rep);

    // Reverse-reach permuted spec, with the internal reordering disabled:
    // the worst realistic starting point.
    auto order = spectrum_friendly_pi_order(bench.spec);
    std::reverse(order.begin(), order.end());
    const Network worst = permute_pis(bench.spec, order);
    SynthOptions no_reorder;
    no_reorder.try_reach_order = false;
    SynthReport worst_rep;
    (void)synthesize(worst, no_reorder, &worst_rep);

    std::printf("%-10s | %13zu | %12zu | %+5.1f%%\n", name.c_str(),
                worst_rep.stats.lits, default_rep.stats.lits,
                worst_rep.stats.lits == 0
                    ? 0.0
                    : 100.0 * (1.0 -
                               static_cast<double>(default_rep.stats.lits) /
                                   static_cast<double>(worst_rep.stats.lits)));
  }
  return 0;
}
