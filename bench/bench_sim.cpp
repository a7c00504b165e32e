// Fault-simulation engine bench: times the reference full-resim fault
// simulator against the incremental event-driven engine (cone-limited
// probes + fault dropping, sim/sim.hpp) on the largest benchgen circuits
// and gates a minimum speedup on the largest one. Detection results are
// verified bit-identical on every circuit — a fast wrong answer fails the
// run outright — and, untimed, on the adder64 and mult16 specs, the two
// arith-scale circuits the full reference can still settle.
//
// Every gated timing warms up once untimed, then reports the median of
// three runs — median (not min) so one lucky run cannot mask CI jitter,
// and the warmup keeps cold caches out of the gates. The full reference
// is slow (seconds per call on addm4), so it is timed that way only on
// the gated circuit; on the others its one identity-check run is the
// reported full_seconds.
//
// Emits a machine-readable BENCH_sim.json for CI tracking.
//
// Usage: bench_sim [--out FILE]   (default: BENCH_sim.json)
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "harness.hpp"
#include "network/transform.hpp"
#include "sim/sim.hpp"
#include "testability/faults.hpp"

namespace {

bool same_result(const rmsyn::FaultSimResult& a,
                 const rmsyn::FaultSimResult& b) {
  if (a.total != b.total || a.detected != b.detected ||
      a.undetected.size() != b.undetected.size())
    return false;
  for (std::size_t i = 0; i < a.undetected.size(); ++i) {
    if (a.undetected[i].node != b.undetected[i].node ||
        a.undetected[i].fanin_index != b.undetected[i].fanin_index ||
        a.undetected[i].stuck_value != b.undetected[i].stuck_value)
      return false;
  }
  return true;
}

} // namespace

int main(int argc, char** argv) {
  using namespace rmsyn;
  const bench::Args args =
      bench::parse_args_or_exit(argc, argv, "BENCH_sim.json", false);
  constexpr double kMinSpeedup = 5.0;
  constexpr std::size_t kPatterns = 1 << 14;
  /// Patterns of the untimed identity checks: three fault-dropping blocks,
  /// the last one partial, at a size the full reference settles in seconds.
  constexpr std::size_t kCheckPatterns = 520;

  bench::Gates gates;

  // Largest benchgen arithmetic circuits; my_adder (16-bit ripple adder,
  // 33 PIs) is the largest and carries the gate.
  const std::vector<std::string> names = {"mlp4", "addm4", "my_adder"};
  const std::string gated = "my_adder";

  obs::Json rows = obs::Json::array();
  bool identical = true;
  for (const auto& name : names) {
    const Network net = decompose2(strash(make_benchmark(name).spec));
    const PatternSet patterns =
        random_patterns(net.pi_count(), kPatterns, 0xB7A5 + net.pi_count());

    // Correctness first: both engines must agree fault-for-fault.
    FaultSimResult ref;
    double full_seconds =
        bench::sample(1, bench::Warmup::None, [&] {
          ref = fault_simulate_full(net, patterns);
        })[0].min();
    FaultSimOptions opt;
    SimStats stats;
    opt.stats = &stats;
    const FaultSimResult inc = fault_simulate(net, patterns, opt);
    if (!same_result(ref, inc)) {
      identical = false;
      std::printf("MISMATCH on %s: full %zu/%zu vs incremental %zu/%zu\n",
                  name.c_str(), ref.detected, ref.total, inc.detected,
                  inc.total);
      continue;
    }

    if (name == gated)
      full_seconds = bench::sample(3, bench::Warmup::Once, [&] {
                       (void)fault_simulate_full(net, patterns);
                     })[0].median();
    const double incr_seconds =
        bench::sample(3, bench::Warmup::Once, [&] {
          (void)fault_simulate(net, patterns);
        })[0].median();
    const double speedup = incr_seconds > 0 ? full_seconds / incr_seconds : 0.0;
    std::printf("%-10s %5zu faults (%zu detected)  full %8.4fs  "
                "incremental %8.4fs  speedup %6.2fx\n",
                name.c_str(), ref.total, ref.detected, full_seconds,
                incr_seconds, speedup);
    if (name == gated)
      gates.check(speedup >= kMinSpeedup, "%s speedup %.2fx (required %.2fx)",
                  gated.c_str(), speedup, kMinSpeedup);
    rows.push_back(bench::object({{"circuit", name},
                                  {"nodes", net.node_count()},
                                  {"faults", ref.total},
                                  {"detected", ref.detected},
                                  {"full_seconds", full_seconds},
                                  {"incremental_seconds", incr_seconds},
                                  {"speedup", speedup},
                                  {"fault_probes", stats.fault_probes},
                                  {"cone_nodes", stats.cone_nodes},
                                  {"faults_dropped", stats.faults_dropped},
                                  {"blocks_skipped", stats.blocks_skipped}}));
  }
  for (const std::string name : {"adder64", "mult16"}) {
    const Network net = decompose2(strash(make_benchmark(name).spec));
    const PatternSet patterns =
        random_patterns(net.pi_count(), kCheckPatterns, 0xB7A5 + net.pi_count());
    const FaultSimResult ref = fault_simulate_full(net, patterns);
    const bool same = same_result(ref, fault_simulate(net, patterns));
    identical = identical && same;
    std::printf("%-10s %5zu faults (%zu detected)  identity only: %s\n",
                name.c_str(), ref.total, ref.detected,
                same ? "match" : "MISMATCH");
  }
  gates.check(identical, "incremental fault sim matches the full reference "
                         "on every circuit");

  return bench::finish(
      args,
      bench::bench_doc("sim", {{"patterns", kPatterns},
                               {"min_speedup", kMinSpeedup},
                               {"gated_circuit", gated},
                               {"results_identical", identical},
                               {"rows", rows}}),
      gates);
}
