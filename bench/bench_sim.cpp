// Fault-simulation engine bench: times the reference full-resim fault
// simulator against the incremental event-driven engine (cone-limited
// probes + fault dropping, sim/sim.hpp) on the largest benchgen circuits
// and gates a minimum speedup on the largest one. Detection results are
// verified bit-identical on every circuit — a fast wrong answer fails the
// run outright.
//
// Two SIMD gates ride along (DESIGN.md §15):
//  * dispatch bit-identity — every kernel target reachable on the host
//    (scalar always; avx2/neon when present) must produce identical
//    simulation values, fault-detection sets and cut truth tables;
//  * throughput — full-pass patterns-per-second is measured per dispatch
//    target on a cache-resident large circuit, and the best vectorized
//    target must beat forced-scalar by 1.5x (skipped when only scalar is
//    reachable). The forced-scalar kernels are built with
//    auto-vectorization off, so the ratio is honest.
//
// Every gated timing warms up once untimed, then reports the median of
// three runs — median (not min) so one lucky run cannot mask CI jitter,
// and the warmup keeps cold caches out of the gates. The full reference
// is slow (seconds per call on addm4), so it is timed that way only on
// the gated circuit; on the others its one identity-check run is the
// reported full_seconds.
//
// Emits a machine-readable BENCH_sim.json for CI tracking; throughput
// rows are labeled "<circuit>/<dispatch>" so report-diff pairs the same
// dispatch across runs.
//
// Usage: bench_sim [--out FILE]   (default: BENCH_sim.json)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "harness.hpp"
#include "network/transform.hpp"
#include "rewrite/cuts.hpp"
#include "sim/sim.hpp"
#include "testability/faults.hpp"
#include "util/simd.hpp"

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

/// Everything one dispatch target computes for the identity gate.
struct DispatchFingerprint {
  std::vector<std::vector<rmsyn::BitVec>> sim_values; // per circuit
  std::vector<rmsyn::FaultSimResult> fault_results;   // per circuit
  std::vector<std::vector<std::vector<rmsyn::rw::Cut>>> cutsets; // per circuit
};

bool same_cuts(const std::vector<std::vector<rmsyn::rw::Cut>>& a,
               const std::vector<std::vector<rmsyn::rw::Cut>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t n = 0; n < a.size(); ++n) {
    if (a[n].size() != b[n].size()) return false;
    for (std::size_t c = 0; c < a[n].size(); ++c) {
      if (!a[n][c].same_leaves(b[n][c]) || a[n][c].tt != b[n][c].tt)
        return false;
    }
  }
  return true;
}

} // namespace

int main(int argc, char** argv) {
  using namespace rmsyn;
  const bench::Args args =
      bench::parse_args_or_exit(argc, argv, "BENCH_sim.json", false);
  constexpr double kMinSpeedup = 5.0;
  constexpr double kMinThroughputRatio = 1.5;
  constexpr std::size_t kPatterns = 1 << 14;
  constexpr std::size_t kThroughputPatterns = 1 << 11;

  const std::string default_dispatch = simd::dispatch_name();
  const std::vector<std::string> dispatches = simd::available_dispatches();
  bench::Gates gates;

  // --- SIMD dispatch bit-identity gate ---------------------------------------
  // Scalar is the reference; every other reachable target must reproduce
  // its simulation values, fault-detection sets and cut truth tables
  // exactly.
  const std::vector<std::string> id_names = {"mlp4", "my_adder", "mult16"};
  std::vector<Network> id_nets;
  std::vector<PatternSet> id_patterns;
  for (const auto& name : id_names) {
    id_nets.push_back(decompose2(strash(make_benchmark(name).spec)));
    id_patterns.push_back(random_patterns(id_nets.back().pi_count(), 1024,
                                          0x51D0 + id_nets.back().pi_count()));
  }
  const auto fingerprint = [&] {
    DispatchFingerprint fp;
    for (std::size_t i = 0; i < id_nets.size(); ++i) {
      const Network& net = id_nets[i];
      fp.sim_values.push_back(simulate(net, id_patterns[i]));
      fp.fault_results.push_back(fault_simulate(net, id_patterns[i]));
      rw::CutOptions copt;
      fp.cutsets.push_back(rw::enumerate_cuts(net, net.topo_order(), copt));
    }
    return fp;
  };
  bool dispatch_identity = true;
  simd::force_dispatch("scalar");
  const DispatchFingerprint ref_fp = fingerprint();
  for (const auto& target : dispatches) {
    if (target == "scalar") continue;
    simd::force_dispatch(target);
    const DispatchFingerprint fp = fingerprint();
    for (std::size_t i = 0; i < id_nets.size(); ++i) {
      if (fp.sim_values[i] != ref_fp.sim_values[i] ||
          !same_result(fp.fault_results[i], ref_fp.fault_results[i]) ||
          !same_cuts(fp.cutsets[i], ref_fp.cutsets[i])) {
        dispatch_identity = false;
        std::printf("DISPATCH MISMATCH: %s differs from scalar on %s\n",
                    target.c_str(), id_names[i].c_str());
      }
    }
  }
  gates.check(dispatch_identity, "every dispatch target (%zu) matches scalar",
              dispatches.size());

  // --- patterns-per-second per dispatch target -------------------------------
  // Full-pass throughput on a cache-resident large circuit: mult16 at
  // kThroughputPatterns keeps the value rows around a megabyte, so the
  // gate measures kernel speed, not DRAM bandwidth. The timed quantity is
  // the eval pass itself (SimStats::full_pass_seconds, the denominator of
  // patterns_per_second) — construction-time allocation is
  // dispatch-independent and would only dilute the ratio.
  const std::string tp_name = "mult16";
  const Network tp_net = decompose2(strash(make_benchmark(tp_name).spec));
  const PatternSet tp_ps =
      random_patterns(tp_net.pi_count(), kThroughputPatterns, 0xC0DE);
  obs::Json throughput = obs::Json::array();
  double scalar_pps = 0.0, best_vector_pps = 0.0;
  for (const auto& target : dispatches) {
    simd::force_dispatch(target);
    // Enough constructions per sample to be well above timer noise.
    const double once = SimState(tp_net, tp_ps).stats().full_pass_seconds;
    const int reps = std::max(1, static_cast<int>(0.02 / std::max(once, 1e-6)));
    const double pps =
        bench::sample(3, bench::Warmup::Once, [&] {
          double sec = 0.0;
          for (int r = 0; r < reps; ++r)
            sec += SimState(tp_net, tp_ps).stats().full_pass_seconds;
          return sec > 0 ? static_cast<double>(kThroughputPatterns) * reps / sec
                         : 0.0;
        })[0].median();
    const std::string row = tp_name + "/" + target;
    std::printf("throughput %-14s %10.3g patterns/s\n", row.c_str(), pps);
    if (target == "scalar") scalar_pps = pps;
    else best_vector_pps = std::max(best_vector_pps, pps);
    throughput.push_back(
        bench::object({{"name", row}, {"patterns_per_second", pps}}));
  }
  double tp_ratio = 0.0;
  if (best_vector_pps > 0.0 && scalar_pps > 0.0) {
    tp_ratio = best_vector_pps / scalar_pps;
    gates.check(tp_ratio >= kMinThroughputRatio,
                "vectorized/scalar throughput %.2fx (required %.2fx)",
                tp_ratio, kMinThroughputRatio);
  } else {
    std::printf("throughput gate skipped: only scalar dispatch reachable\n");
  }
  simd::force_dispatch(default_dispatch);

  // --- incremental-vs-full fault simulation ----------------------------------
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
  gates.check(identical, "incremental fault sim matches the full reference "
                         "on every circuit");

  return bench::finish(
      args,
      bench::bench_doc("sim", {{"patterns", kPatterns},
                               {"min_speedup", kMinSpeedup},
                               {"gated_circuit", gated},
                               {"results_identical", identical},
                               {"dispatch_identity", dispatch_identity},
                               {"min_throughput_ratio", kMinThroughputRatio},
                               {"throughput_patterns", kThroughputPatterns},
                               {"throughput_ratio", tp_ratio},
                               {"throughput", throughput},
                               {"rows", rows}}),
      gates);
}
