// Extension experiment — the question Section 6 leaves open: "other
// characteristics, such as ... delay, of the synthesized circuits will
// also differ from the results of conventional synthesis methods and need
// to be analyzed."
//
// Measures logic depth before mapping (levels of 2-input AND/OR gates,
// XOR2 = 2 levels, inverters free — consistent with the area metric) and
// after mapping (cells on the longest PI->PO path).
//
// Usage: bench_extension_delay [circuit ...]
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/script.hpp"
#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "harness.hpp"
#include "mapping/mapper.hpp"
#include "network/stats.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::vector<std::string> names =
      bench::parse_args_or_exit(argc, argv, "", true).names;
  if (names.empty())
    names = {"z4ml", "adr4", "add6", "my_adder", "mlp4",     "rd53",
             "rd84", "9sym", "t481", "cm85a",    "majority", "parity"};

  std::printf("== Extension: logic depth, ours vs the SOP baseline ==\n");
  std::printf("%-10s | %9s %9s | %10s %10s\n", "circuit", "our depth",
              "SOP depth", "our cells", "SOP cells");

  double ours_sum = 0, base_sum = 0;
  for (const auto& name : names) {
    const Benchmark bench = make_benchmark(name);
    const Network ours = synthesize(bench.spec, {}, nullptr);
    const Network base = baseline_synthesize(bench.spec, {}, nullptr);
    const auto so = network_stats(ours);
    const auto sb = network_stats(base);
    const auto mo = map_network(ours, mcnc_library());
    const auto mb = map_network(base, mcnc_library());
    std::printf("%-10s | %9zu %9zu | %10zu %10zu\n", name.c_str(), so.depth,
                sb.depth, mo.depth, mb.depth);
    ours_sum += static_cast<double>(mo.depth);
    base_sum += static_cast<double>(mb.depth);
  }
  std::printf("\nMean mapped depth ratio ours/baseline: %.2f\n",
              base_sum > 0 ? ours_sum / base_sum : 1.0);
  std::printf("(XOR-dominated datapaths trade area for longer XOR chains — "
              "the ripple adders show it most; two-level-ish baseline "
              "results are naturally shallow.)\n");
  return 0;
}
