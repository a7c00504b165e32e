// Large-network scaling bench for the SoA core: generates a wide array
// multiplier, pushes it through the whole parse -> stats -> simulate ->
// redundancy pipeline, and gates CI on a nodes/sec floor for the
// simulator plus a peak-RSS ceiling for the run. The circuit is
// mult132 (103,754 nodes) — the smallest ~128-bit multiplier that clears
// the >= 100k-node floor the bench also gates on (mult128 is 97,538).
// The parse stage is a binary AIGER round-trip, so reader and writer are
// both exercised at scale; redundancy runs under a governed budget and
// must bail out cleanly rather than OOM or hang.
//
// Emits a machine-readable BENCH_network_scale.json for CI tracking.
//
// Usage: bench_network_scale [--out FILE]
//        (default: BENCH_network_scale.json)
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "core/redundancy.hpp"
#include "harness.hpp"
#include "network/io.hpp"
#include "network/simulate.hpp"
#include "network/stats.hpp"
#include "util/governor.hpp"
#include "util/osinfo.hpp"
#include "util/stopwatch.hpp"

namespace {

struct Stage {
  const char* name;
  double seconds = 0.0;
  std::size_t nodes = 0; ///< node count the stage operated on
  double nodes_per_sec() const {
    return seconds > 0 ? static_cast<double>(nodes) / seconds : 0.0;
  }
};

} // namespace

int main(int argc, char** argv) {
  using namespace rmsyn;
  const bench::Args args =
      bench::parse_args_or_exit(argc, argv, "BENCH_network_scale.json", false);
  const std::string circuit = "mult132";
  constexpr std::size_t kMinNodes = 100000;
  constexpr double kMinNodesPerSec = 1e6;
  constexpr double kMaxRssMb = 3000.0;
  constexpr std::size_t kPatterns = 256;

  std::vector<Stage> stages;

  // ---- generate --------------------------------------------------------
  Stage gen{"generate"};
  Stopwatch sw;
  Network net = make_benchmark(circuit).spec;
  gen.seconds = sw.seconds();
  gen.nodes = net.node_count();
  stages.push_back(gen);
  std::printf("%-10s %8zu nodes in %7.3fs (%.2fM nodes/s)\n", gen.name,
              gen.nodes, gen.seconds, gen.nodes_per_sec() / 1e6);

  // ---- parse (binary AIGER round-trip) ---------------------------------
  Stage parse{"aiger_roundtrip"};
  sw.restart();
  const std::string aig = write_aiger_string(net, /*binary=*/true);
  Network reread = read_aiger_string(aig);
  parse.seconds = sw.seconds();
  parse.nodes = reread.node_count();
  stages.push_back(parse);
  std::printf("%-10s %8zu nodes in %7.3fs (%.2fM nodes/s, %zu KB)\n",
              parse.name, parse.nodes, parse.seconds,
              parse.nodes_per_sec() / 1e6, aig.size() / 1024);

  // ---- stats -----------------------------------------------------------
  Stage st{"stats"};
  sw.restart();
  const NetworkStats ns = network_stats(net);
  st.seconds = sw.seconds();
  st.nodes = net.node_count();
  stages.push_back(st);
  std::printf("%-10s %8zu gates2, depth %zu in %7.3fs\n", st.name, ns.gates2,
              ns.depth, st.seconds);

  // ---- simulate (carries the nodes/sec gate) ---------------------------
  Stage sim{"simulate"};
  const PatternSet patterns =
      random_patterns(net.pi_count(), kPatterns, 0x5CA1E);
  sw.restart();
  const auto values = simulate(net, patterns);
  sim.seconds = sw.seconds();
  sim.nodes = net.node_count();
  stages.push_back(sim);
  std::printf("%-10s %8zu nodes in %7.3fs (%.2fM nodes/s, %zu patterns)\n",
              sim.name, sim.nodes, sim.seconds, sim.nodes_per_sec() / 1e6,
              kPatterns);

  // ---- redundancy under a governed budget ------------------------------
  // The exact (BDD) decisions cannot finish on a 100k-node multiplier;
  // the point is that the pass degrades cleanly — budget trips make it
  // keep undecided gates and return — instead of OOMing or hanging.
  Stage red{"redundancy"};
  ResourceLimits limits;
  limits.deadline_seconds = 20.0;
  limits.node_limit = 2'000'000;
  ResourceGovernor governor(limits);
  RedundancyOptions ropt;
  ropt.governor = &governor;
  ropt.max_patterns = 1024;
  RedundancyStats rstats;
  sw.restart();
  const Network reduced = remove_xor_redundancy(net, {}, ropt, &rstats);
  red.seconds = sw.seconds();
  red.nodes = reduced.node_count();
  stages.push_back(red);
  std::printf("%-10s %8zu -> %zu nodes in %7.3fs (budget %s)\n", red.name,
              net.node_count(), red.nodes, red.seconds,
              governor.exhausted() ? "tripped" : "not tripped");

  const double rss = peak_rss_mb();
  const double sim_rate = sim.nodes_per_sec();
  std::printf("peak RSS %.1f MB\n", rss);

  bench::Gates gates;
  gates.check(gen.nodes >= kMinNodes, "%s has %zu nodes (required %zu)",
              circuit.c_str(), gen.nodes, kMinNodes);
  gates.check(sim_rate >= kMinNodesPerSec,
              "simulate %.2fM nodes/s (required %.2fM)", sim_rate / 1e6,
              kMinNodesPerSec / 1e6);
  gates.check(rss <= kMaxRssMb, "peak RSS %.1f MB (ceiling %.1f MB)", rss,
              kMaxRssMb);

  obs::Json stage_rows = obs::Json::array();
  for (const Stage& s : stages)
    stage_rows.push_back(bench::object({{"stage", s.name},
                                        {"nodes", s.nodes},
                                        {"seconds", s.seconds},
                                        {"nodes_per_sec", s.nodes_per_sec()}}));
  return bench::finish(
      args,
      bench::bench_doc("network_scale",
                       {{"circuit", circuit},
                        {"patterns", kPatterns},
                        {"min_nodes", kMinNodes},
                        {"min_nodes_per_sec", kMinNodesPerSec},
                        {"max_rss_mb", kMaxRssMb},
                        {"peak_rss_mb", rss},
                        {"gates2", ns.gates2},
                        {"depth", ns.depth},
                        {"governor_tripped", governor.exhausted()},
                        {"stages", stage_rows}}),
      gates);
}
