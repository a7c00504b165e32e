// Parallel scheduler bench: runs the Table-2 sweep through the batch
// runner at --jobs 1/2/4/8, verifies that every result column is
// bit-identical across parallelism levels (the determinism contract of
// DESIGN.md §8), and reports the speedup curve. Emits a machine-readable
// BENCH_parallel.json for CI tracking.
//
// The speedup achievable obviously depends on the host: on a single
// hardware thread the curve is flat (the scheduler adds only its own small
// overhead); the JSON records hardware_threads so CI can judge the numbers
// in context.
//
// Usage: bench_parallel [--out FILE] [circuit ...]
//        (default: BENCH_parallel.json, all Table-2 circuits)
#include <cstdio>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "harness.hpp"
#include "sched/batch.hpp"

int main(int argc, char** argv) {
  using namespace rmsyn;
  const bench::Args args =
      bench::parse_args_or_exit(argc, argv, "BENCH_parallel.json", true);
  const std::vector<std::string> names =
      args.names.empty() ? benchmark_names() : args.names;

  const FlowOptions fopt; // full flow: synthesis, mapping, power
  obs::Json runs = obs::Json::array();
  std::vector<FlowRow> reference;
  double serial_seconds = 0.0;
  bool identical = true;
  for (const int jobs : {1, 2, 4, 8}) {
    const BatchResult r = run_flows(names, fopt, jobs);
    if (jobs == 1) {
      reference = r.rows;
      serial_seconds = r.seconds;
    } else {
      for (std::size_t i = 0; i < r.rows.size(); ++i) {
        const FlowRow& a = reference[i];
        const FlowRow& b = r.rows[i];
        const bool same = a.ours_lits == b.ours_lits &&
                          a.base_lits == b.base_lits &&
                          a.ours_map_lits == b.ours_map_lits &&
                          a.base_map_lits == b.base_map_lits &&
                          a.ours_power == b.ours_power &&
                          a.base_power == b.base_power &&
                          a.ours_status.to_string() ==
                              b.ours_status.to_string();
        if (!same) {
          identical = false;
          std::printf("MISMATCH at jobs=%d: %s\n", jobs, b.circuit.c_str());
        }
      }
    }
    const double speedup = r.seconds > 0 ? serial_seconds / r.seconds : 0.0;
    std::printf("jobs=%d: %zu circuits in %.3fs (speedup %.2fx)\n", jobs,
                r.rows.size(), r.seconds, speedup);
    if (jobs > 1) std::printf("%s", format_sched_summary(r.sched).c_str());
    runs.push_back(
        bench::object({{"jobs", jobs},
                       {"seconds", r.seconds},
                       {"speedup", speedup},
                       {"tasks", r.sched.total_tasks()},
                       {"steals", r.sched.total_steals()},
                       {"busy_seconds", r.sched.total_busy_seconds()},
                       {"idle_seconds", r.sched.total_idle_seconds()}}));
  }
  std::printf("%s", format_dd_kernel_summary(reference).c_str());

  // The gate is determinism, not speedup: wall clock depends on the host,
  // bit-identical rows must hold everywhere.
  bench::Gates gates;
  gates.check(identical, "results identical across --jobs 1/2/4/8");
  return bench::finish(args,
                       bench::bench_doc("parallel",
                                        {{"circuits", names.size()},
                                         {"results_identical", identical},
                                         {"runs", runs}}),
                       gates);
}
