// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload table2-serial|table2-jobs4|arith-scale
//             --seed N --seconds S --trace 0|1 [--state-dir DIR]
//
// Every workload is a closed loop with one client: the next circuit starts
// only when the previous one has finished. A run generates its inputs from
// the seed (set-up, timed separately as setup_s), then repeats the
// workload's fixed pass while another pass fits in --seconds (at least one
// pass), and reports medians over passes. Outputs are checked after the
// timed section: every shipped network against its specification by the
// benchmark's own evaluator (refeval.hpp), and every determinism contract
// the library states. A failed check marks its operation failed.
//
// With --trace 0 the last stdout line is the end-to-end metrics; with
// --trace 1 the run makes one untraced and one traced pass and reports the
// per-layer metrics: self time of the spans the benchmark opens around each
// library call, plus the counters those calls return.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/script.hpp"
#include "benchgen/spec.hpp"
#include "core/redundancy.hpp"
#include "core/synth.hpp"
#include "equiv/equiv.hpp"
#include "mapping/genlib.hpp"
#include "mapping/mapper.hpp"
#include "network/simulate.hpp"
#include "network/stats.hpp"
#include "network/transform.hpp"
#include "power/power.hpp"
#include "rewrite/database.hpp"
#include "rewrite/rewrite.hpp"
#include "sched/batch.hpp"
#include "testability/faults.hpp"
#include "util/governor.hpp"
#include "util/osinfo.hpp"

#include "refeval.hpp"
#include "spans.hpp"

namespace {

using namespace rmsyn;
using perfbench::Tracer;

// ---- fixed workload parameters ---------------------------------------------

const std::vector<std::string> kArithCircuits = {"adder64", "mult16",
                                                 "mult132"};
/// Governor step budget of each arith-scale redundancy removal and
/// equivalence check. A count, never a deadline, so verdicts do not depend
/// on machine speed.
constexpr uint64_t kStepLimit = 1'000'000;
/// Pattern cap of the arith-scale redundancy pass (as bench_network_scale).
constexpr std::size_t kRedundancyPatterns = 1024;
/// Sampled-power patterns on arith-scale (exact BDD power does not finish
/// on mult16).
constexpr std::size_t kArithPowerPatterns = 4096;
/// Fault-simulation patterns per arith-scale circuit.
constexpr std::size_t kFaultPatterns = 512;
/// Parallelism of table2-jobs4: 3 pool workers plus the helping caller.
constexpr int kBatchJobs = 4;
/// Set-up repetitions; setup_s is their median. Cheap set-ups repeat until
/// they have run for about a second, up to kMaxSetupReps times.
constexpr int kSetupReps = 3;
constexpr int kMaxSetupReps = 100;

// ---- small utilities -------------------------------------------------------

double wall_now() { return 1e-9 * static_cast<double>(perfbench::now_ns()); }

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Same hash run_flow uses to derive a circuit's power seed, so the serial
/// composition below reproduces BatchRunner's power columns.
uint64_t fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Power is compared on XOR-expanded AND/OR networks, as in run_flow.
Network power_net(const Network& n) {
  return expand_xor(decompose2(strash(n)));
}

// ---- per-operation results -------------------------------------------------

/// QoR columns of one operation (a Table-2 row or an arith-scale circuit).
struct Qor {
  std::string op;
  std::size_t ours_lits = 0, ours_gates = 0, ours_map_lits = 0;
  std::size_t base_lits = 0, base_gates = 0, base_map_lits = 0;
  double ours_power = 0.0, base_power = 0.0;
  /// Both power figures came from exact BDD probabilities, so they do not
  /// depend on the seed.
  bool power_exact = false;

  bool same_structure(const Qor& o) const {
    return op == o.op && ours_lits == o.ours_lits &&
           ours_gates == o.ours_gates && ours_map_lits == o.ours_map_lits &&
           base_lits == o.base_lits && base_gates == o.base_gates &&
           base_map_lits == o.base_map_lits;
  }
  bool same_power(const Qor& o) const {
    return ours_power == o.ours_power && base_power == o.base_power;
  }
};

/// One pass over a workload's operations.
struct Pass {
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<Qor> qor;
  std::vector<bool> failed; ///< per operation
  std::vector<std::string> failures;
  std::vector<double> row_seconds; ///< per operation, timed from outside
  std::size_t checks = 0;  ///< equivalence checks the flow ran
  std::size_t decided = 0; ///< ... that reached a verdict
  std::map<std::string, double> layer;

  explicit Pass(std::size_t ops)
      : qor(ops), failed(ops, false), row_seconds(ops, 0.0) {}

  void fail(std::size_t op, const std::string& why) {
    failed[op] = true;
    failures.push_back(qor[op].op + ": " + why);
  }
  std::size_t failed_count() const {
    return static_cast<std::size_t>(
        std::count(failed.begin(), failed.end(), true));
  }
};

void check_output(Pass& p, std::size_t op, const Network& spec,
                  const Network& shipped, uint64_t seed, const char* which) {
  const std::string diff = perfbench::compare_outputs(spec, shipped, seed);
  if (!diff.empty()) p.fail(op, std::string(which) + " network " + diff);
}

/// Per-stage seconds of the library's StageBreakdown, under layer names.
void absorb_stages(Pass& p, const StageBreakdown& sb) {
  static const std::map<std::string, std::string> kStageMetric = {
      {"baseline-flatten", "baseline.flatten_s"},
      {"baseline-simplify", "baseline.simplify_s"},
      {"baseline-eliminate", "baseline.eliminate_s"},
      {"baseline-extract", "baseline.extract_s"},
      {"baseline-factor", "baseline.factor_s"},
      {"baseline-redundancy", "baseline.redundancy_s"},
      {"baseline-verify", "baseline.verify_s"},
      {"polarity-search", "fdd.polarity_search_s"},
      {"ofdd-build", "fdd.ofdd_build_s"},
      {"fprm-extract", "fdd.fprm_extract_s"},
      {"spec-bdd", "core.spec_bdd_s"},
      {"factor", "core.factor_s"},
      {"resub", "core.resub_s"},
      {"redundancy", "core.redundancy_s"},
      {"verify", "core.verify_s"},
  };
  for (const auto& e : sb.entries) {
    const auto it = kStageMetric.find(e.name);
    if (it != kStageMetric.end()) p.layer[it->second] += e.seconds;
  }
}

void absorb_bdd(Pass& p, const BddStats& s) {
  p.layer["bdd.cache_lookups"] += static_cast<double>(s.cache_lookups);
  p.layer["bdd.cache_hits"] += static_cast<double>(s.cache_hits);
  p.layer["bdd.unique_lookups"] += static_cast<double>(s.unique_lookups);
  p.layer["bdd.peak_live_nodes"] = std::max(
      p.layer["bdd.peak_live_nodes"], static_cast<double>(s.peak_live_nodes));
  p.layer["bdd.gc_runs"] += static_cast<double>(s.gc_runs);
  p.layer["bdd.nodes_freed"] += static_cast<double>(s.nodes_freed);
}

void absorb_sim(Pass& p, const SimStats& s) {
  p.layer["sim.full_passes"] += static_cast<double>(s.full_passes);
  p.layer["sim.incr_resims"] += static_cast<double>(s.incr_resims);
  p.layer["sim.simd_blocks"] += static_cast<double>(s.simd_blocks);
}

void note_power(Pass& p, const PowerReport& pr) {
  p.layer["power.estimates"] += 1.0;
  if (pr.exact) p.layer["power.exact_estimates"] += 1.0;
}

// ---- table2-serial: the 41 circuits, both flows, mapping and power ---------

/// One serial Table-2 pass. Calls the public functions run_flow composes —
/// synthesize, baseline_synthesize, map_network, estimate_power — in
/// run_flow's order with run_flow's default options and power seeds, so the
/// benchmark holds every shipped network for the independent check and can
/// span each call. The determinism checks compare these columns with
/// BatchRunner's.
Pass table2_serial_pass(const std::vector<Benchmark>& benches, uint64_t seed,
                        Tracer& tr) {
  const std::size_t n = benches.size();
  Pass p(n);
  std::vector<std::optional<Network>> ours(n), base(n);
  const CellLibrary& lib = mcnc_library();

  const double w0 = wall_now(), c0 = cpu_now();
  for (std::size_t i = 0; i < n; ++i) {
    const Benchmark& b = benches[i];
    Qor& q = p.qor[i];
    q.op = b.name;
    const double r0 = wall_now();
    const auto row_span = tr.span("run_flow", b.name);
    p.checks += 2;
    try {
      SynthReport rep;
      {
        const auto s = tr.span("synthesize", b.name);
        ours[i] = synthesize(b.spec, {}, &rep);
      }
      q.ours_lits = rep.stats.lits;
      if (rep.status.is_failed())
        p.fail(i, "synthesize status " + rep.status.to_string());
      absorb_stages(p, rep.stages);
      absorb_bdd(p, rep.bdd);
      absorb_sim(p, rep.sim);
      for (const std::size_t c : rep.fprm_cube_counts)
        p.layer["core.fprm_cubes"] += static_cast<double>(c);
      p.layer["core.outputs_via_cubes"] +=
          static_cast<double>(rep.outputs_via_cubes);
      p.layer["core.outputs_via_ofdd"] +=
          static_cast<double>(rep.outputs_via_ofdd);
      ++p.decided;
    } catch (const std::exception& e) {
      p.fail(i, std::string("synthesize threw: ") + e.what());
    }
    try {
      BaselineReport rep;
      {
        const auto s = tr.span("baseline_synthesize", b.name);
        base[i] = baseline_synthesize(b.spec, {}, &rep);
      }
      q.base_lits = rep.stats.lits;
      if (rep.status.is_failed())
        p.fail(i, "baseline_synthesize status " + rep.status.to_string());
      absorb_stages(p, rep.stages);
      p.layer["baseline.sop_lits_initial"] +=
          static_cast<double>(rep.sop_lits_initial);
      p.layer["baseline.sop_lits_final"] +=
          static_cast<double>(rep.sop_lits_final);
      p.layer["baseline.nodes_extracted"] +=
          static_cast<double>(rep.nodes_extracted);
      ++p.decided;
    } catch (const std::exception& e) {
      p.fail(i, std::string("baseline_synthesize threw: ") + e.what());
    }
    if (ours[i]) {
      const auto s = tr.span("map_network", b.name);
      const MapResult m = map_network(*ours[i], lib);
      q.ours_gates = m.gate_count;
      q.ours_map_lits = m.literal_count;
    }
    if (base[i]) {
      const auto s = tr.span("map_network", b.name);
      const MapResult m = map_network(*base[i], lib);
      q.base_gates = m.gate_count;
      q.base_map_lits = m.literal_count;
    }
    PowerOptions po;
    po.sim_seed = seed ^ fnv1a64(b.name);
    bool exact = true;
    if (ours[i]) {
      const Network pn = power_net(*ours[i]);
      const auto s = tr.span("estimate_power", b.name);
      const PowerReport pr = estimate_power(pn, po);
      q.ours_power = pr.total;
      exact = exact && pr.exact;
      absorb_sim(p, pr.sim);
      note_power(p, pr);
    }
    if (base[i]) {
      const Network pn = power_net(*base[i]);
      const auto s = tr.span("estimate_power", b.name);
      const PowerReport pr = estimate_power(pn, po);
      q.base_power = pr.total;
      exact = exact && pr.exact;
      absorb_sim(p, pr.sim);
      note_power(p, pr);
    }
    q.power_exact = exact;
    p.row_seconds[i] = wall_now() - r0;
  }
  p.wall = wall_now() - w0;
  p.cpu = cpu_now() - c0;

  // Outside the timed section: the independent output check.
  for (std::size_t i = 0; i < n; ++i) {
    const Network& spec = benches[i].spec;
    p.layer["network.nodes_in"] +=
        static_cast<double>(perfbench::live_gates(spec));
    if (ours[i]) {
      check_output(p, i, spec, *ours[i], seed, "FPRM-flow");
      p.layer["network.synthesize.nodes_out"] +=
          static_cast<double>(perfbench::live_gates(*ours[i]));
    }
    if (base[i]) {
      check_output(p, i, spec, *base[i], seed, "baseline");
      p.layer["network.baseline.nodes_out"] +=
          static_cast<double>(perfbench::live_gates(*base[i]));
    }
  }
  return p;
}

// ---- table2-jobs4: the same rows through BatchRunner -----------------------

/// One BatchRunner pass. `inner` also hands the pool to the in-flow
/// polarity search (level-2 parallelism).
Pass table2_batch_pass(const std::vector<Benchmark>& benches, uint64_t seed,
                       int jobs, bool inner, Tracer& tr) {
  const std::size_t n = benches.size();
  Pass p(n);
  BatchOptions bo;
  bo.jobs = jobs;
  bo.inner_parallel = inner;
  bo.flow.power.sim_seed = seed;
  BatchRunner runner(bo);
  // Completion time of each row since the batch started. FlowRow's own
  // row_seconds is not used: at jobs > 1 the helping wait runs other rows'
  // tasks inside a row's interval.
  const uint64_t t0 = perfbench::now_ns();
  runner.on_row = [&p, t0](const FlowRow&, std::size_t i) {
    p.row_seconds[i] = 1e-9 * static_cast<double>(perfbench::now_ns() - t0);
  };

  const double w0 = wall_now(), c0 = cpu_now();
  BatchResult r;
  {
    const auto s = tr.span("batch_run", "table2");
    r = runner.run(benches);
  }
  p.wall = wall_now() - w0;
  p.cpu = cpu_now() - c0;

  for (std::size_t i = 0; i < n; ++i) {
    const FlowRow& row = r.rows[i];
    Qor& q = p.qor[i];
    q.op = benches[i].name;
    q.ours_lits = row.ours_lits;
    q.ours_gates = row.ours_gates;
    q.ours_map_lits = row.ours_map_lits;
    q.base_lits = row.base_lits;
    q.base_gates = row.base_gates;
    q.base_map_lits = row.base_map_lits;
    q.ours_power = row.ours_power;
    q.base_power = row.base_power;
    p.checks += 2;
    p.decided += (row.ours_status.is_failed() ? 0 : 1) +
                 (row.base_status.is_failed() ? 0 : 1);
    if (row.worst_status().is_failed())
      p.fail(i, "row status " + row.worst_status().to_string());
    absorb_stages(p, row.stages);
    absorb_bdd(p, row.bdd);
    absorb_sim(p, row.sim);
    p.layer["core.synthesize_s"] += row.ours_seconds;
    p.layer["baseline.synthesize_s"] += row.base_seconds;
    p.layer["mapping.map_s"] += row.stages.seconds_for("mapping");
    p.layer["power.estimate_s"] += row.stages.seconds_for("power");
  }
  const SchedStats& s = r.sched;
  p.layer["sched.tasks"] = static_cast<double>(s.total_tasks());
  p.layer["sched.steals"] = static_cast<double>(s.total_steals());
  p.layer["sched.tasks_stolen"] = static_cast<double>(s.total_tasks_stolen());
  p.layer["sched.busy_s"] = s.total_busy_seconds();
  p.layer["sched.idle_s"] = s.total_idle_seconds();
  p.layer["sched.max_queue_depth"] = static_cast<double>(s.max_queue_depth());
  const double slots = s.total_busy_seconds() + s.total_idle_seconds();
  p.layer["sched.busy_share"] =
      slots > 0.0 ? s.total_busy_seconds() / slots : 0.0;
  p.layer["sched.row_done_p50_s"] = median(p.row_seconds);
  p.layer["sched.row_done_max_s"] =
      *std::max_element(p.row_seconds.begin(), p.row_seconds.end());
  return p;
}

// ---- arith-scale: adder64, mult16, mult132 ---------------------------------

Pass arith_pass(const std::vector<Benchmark>& benches,
                const std::vector<PatternSet>& fault_patterns, uint64_t seed,
                Tracer& tr) {
  const std::size_t n = benches.size();
  Pass p(n);
  std::vector<std::optional<Network>> rewritten(n), shipped(n);
  const CellLibrary& lib = mcnc_library();
  ResourceLimits lim;
  lim.step_limit = kStepLimit;

  const double w0 = wall_now(), c0 = cpu_now();
  for (std::size_t i = 0; i < n; ++i) {
    const Benchmark& b = benches[i];
    Qor& q = p.qor[i];
    q.op = b.name;
    const double r0 = wall_now();
    const auto row_span = tr.span("arith_flow", b.name);
    try {
      Network net = b.spec;
      rw::RewriteStats rs;
      {
        const auto s = tr.span("rewrite_network", b.name);
        rs = rw::rewrite_network(net);
      }
      p.layer["rewrite.cuts_s"] += rs.cuts_seconds;
      p.layer["rewrite.eval_s"] += rs.eval_seconds;
      p.layer["rewrite.apply_s"] += rs.apply_seconds;
      p.layer["rewrite.cuts_enumerated"] +=
          static_cast<double>(rs.cuts_enumerated);
      p.layer["rewrite.db_hits"] += static_cast<double>(rs.db_hits);
      p.layer["rewrite.candidates"] += static_cast<double>(rs.candidates);
      p.layer["rewrite.replacements"] += static_cast<double>(rs.replacements);

      ResourceGovernor red_gov(lim);
      RedundancyOptions ro;
      ro.governor = &red_gov;
      ro.max_patterns = kRedundancyPatterns;
      RedundancyStats red;
      {
        const auto s = tr.span("remove_xor_redundancy", b.name);
        shipped[i] = remove_xor_redundancy(net, {}, ro, &red);
      }
      rewritten[i] = std::move(net);
      const Network& out = *shipped[i];
      absorb_sim(p, red.sim);

      ResourceGovernor eq_gov(lim);
      EquivResult eq;
      {
        const auto s = tr.span("check_equivalence", b.name);
        eq = check_equivalence(b.spec, out, seed, &eq_gov);
      }
      ++p.checks;
      if (eq.decided) {
        ++p.decided;
        if (!eq.equivalent) p.fail(i, "check_equivalence: " + eq.reason);
      }

      {
        const auto s = tr.span("map_network", b.name);
        const MapResult m = map_network(out, lib);
        q.ours_gates = m.gate_count;
        q.ours_map_lits = m.literal_count;
      }
      PowerOptions po;
      po.exact = false;
      po.sim_patterns = kArithPowerPatterns;
      po.sim_seed = seed ^ fnv1a64(b.name);
      {
        const Network pn = power_net(out);
        const auto s = tr.span("estimate_power", b.name);
        const PowerReport pr = estimate_power(pn, po);
        q.ours_power = pr.total;
        absorb_sim(p, pr.sim);
        note_power(p, pr);
      }
      SimStats fsim;
      FaultSimOptions fo;
      fo.stats = &fsim;
      FaultSimResult fr;
      {
        const auto s = tr.span("fault_simulate", b.name);
        fr = fault_simulate(out, fault_patterns[i], fo);
      }
      absorb_sim(p, fsim);
      p.layer["testability.faults"] += static_cast<double>(fr.total);
      p.layer["testability.detected"] += static_cast<double>(fr.detected);
    } catch (const std::exception& e) {
      p.fail(i, std::string("threw: ") + e.what());
    }
    p.row_seconds[i] = wall_now() - r0;
  }
  p.wall = wall_now() - w0;
  p.cpu = cpu_now() - c0;

  // Outside the timed section: sizes, literals and the output check.
  for (std::size_t i = 0; i < n; ++i) {
    p.layer["network.nodes_in"] +=
        static_cast<double>(perfbench::live_gates(benches[i].spec));
    if (!shipped[i]) continue;
    const auto before =
        static_cast<double>(perfbench::live_gates(*rewritten[i]));
    const auto after = static_cast<double>(perfbench::live_gates(*shipped[i]));
    p.layer["network.rewrite.nodes_out"] += before;
    p.layer["network.redundancy.nodes_out"] += after;
    p.layer["core.redundancy_removed_nodes"] += before - after;
    p.qor[i].ours_lits = network_stats(*shipped[i]).lits;
    check_output(p, i, benches[i].spec, *shipped[i], seed, "shipped");
  }
  return p;
}

/// arith-scale's base_* columns describe the specification network as
/// generated (the input the rewrite and redundancy passes improve on).
void fill_spec_columns(std::vector<Qor>& qor,
                       const std::vector<Benchmark>& benches, uint64_t seed) {
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const Network& spec = benches[i].spec;
    const MapResult m = map_network(spec, mcnc_library());
    PowerOptions po;
    po.exact = false;
    po.sim_patterns = kArithPowerPatterns;
    po.sim_seed = seed ^ fnv1a64(benches[i].name);
    qor[i].base_lits = network_stats(spec).lits;
    qor[i].base_gates = m.gate_count;
    qor[i].base_map_lits = m.literal_count;
    qor[i].base_power = estimate_power(power_net(spec), po).total;
  }
}

// ---- serial reference for the determinism checks ---------------------------

/// Identity of this binary, so a stored reference from another build is
/// never used.
std::string binary_identity() {
  struct stat st {};
  if (stat("/proc/self/exe", &st) != 0) return "unknown";
  return std::to_string(st.st_size) + "-" + std::to_string(st.st_mtim.tv_sec) +
         "." + std::to_string(st.st_mtim.tv_nsec);
}

struct SerialReference {
  uint64_t seed = 0;
  std::vector<Qor> qor;
  std::vector<double> row_seconds;
};

std::string reference_path(const std::string& dir) {
  return dir + "/table2-serial.ref";
}

void store_reference(const std::string& dir, uint64_t seed, const Pass& p) {
  if (dir.empty()) return;
  const std::string path = reference_path(dir);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return;
    out.precision(17);
    out << "perfbench-serial-reference " << binary_identity() << " " << seed
        << "\n";
    for (std::size_t i = 0; i < p.qor.size(); ++i) {
      const Qor& q = p.qor[i];
      out << q.op << " " << q.ours_lits << " " << q.ours_gates << " "
          << q.ours_map_lits << " " << q.base_lits << " " << q.base_gates
          << " " << q.base_map_lits << " " << q.ours_power << " "
          << q.base_power << " " << q.power_exact << " " << p.row_seconds[i]
          << "\n";
    }
    if (!out) return;
  }
  std::rename(tmp.c_str(), path.c_str());
}

std::optional<SerialReference> load_reference(const std::string& dir,
                                              std::size_t rows) {
  if (dir.empty()) return std::nullopt;
  std::ifstream in(reference_path(dir));
  std::string magic, identity;
  SerialReference ref;
  if (!(in >> magic >> identity >> ref.seed) ||
      magic != "perfbench-serial-reference" || identity != binary_identity())
    return std::nullopt;
  Qor q;
  double secs = 0.0;
  while (in >> q.op >> q.ours_lits >> q.ours_gates >> q.ours_map_lits >>
         q.base_lits >> q.base_gates >> q.base_map_lits >> q.ours_power >>
         q.base_power >> q.power_exact >> secs) {
    ref.qor.push_back(q);
    ref.row_seconds.push_back(secs);
  }
  if (ref.qor.size() != rows) return std::nullopt;
  return ref;
}

/// Marks every row of `p` whose columns differ from the serial reference.
/// Power is compared when it cannot depend on the seed or the seeds match.
void check_against_reference(Pass& p, const SerialReference& ref,
                             uint64_t seed, const char* what) {
  for (std::size_t i = 0; i < p.qor.size(); ++i) {
    const Qor& a = p.qor[i];
    const Qor& b = ref.qor[i];
    const bool compare_power = b.power_exact || ref.seed == seed;
    if (!a.same_structure(b) || (compare_power && !a.same_power(b)))
      p.fail(i, std::string(what) + " columns differ from the serial run");
  }
}

/// Marks operations whose columns differ between two passes of one run.
void check_same_columns(Pass& p, const Pass& other, const char* what) {
  for (std::size_t i = 0; i < p.qor.size(); ++i)
    if (!p.qor[i].same_structure(other.qor[i]) ||
        !p.qor[i].same_power(other.qor[i]))
      p.fail(i, std::string(what) + " columns differ");
}

// ---- metrics output --------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"cpu_s", "s"},            {"peak_rss_mb", "MB"},
    {"ok_share", "share"},     {"ours_lits", "count"},
    {"ours_gates", "count"},   {"ours_map_lits", "count"},
    {"ours_power", "activity"}, {"base_lits", "count"},
    {"base_gates", "count"},   {"base_map_lits", "count"},
    {"base_power", "activity"}, {"verify_decided_share", "share"},
};

const std::vector<Metric> kPerLayer = {
    {"benchgen.make_benchmark_s", "s"},
    {"flow.run_flow_self_s", "s"},
    {"trace.overhead_s", "s"},
    {"baseline.synthesize_s", "s"},
    {"baseline.flatten_s", "s"},
    {"baseline.simplify_s", "s"},
    {"baseline.eliminate_s", "s"},
    {"baseline.extract_s", "s"},
    {"baseline.factor_s", "s"},
    {"baseline.redundancy_s", "s"},
    {"baseline.verify_s", "s"},
    {"baseline.sop_lits_initial", "count"},
    {"baseline.sop_lits_final", "count"},
    {"baseline.nodes_extracted", "count"},
    {"core.synthesize_s", "s"},
    {"fdd.polarity_search_s", "s"},
    {"fdd.ofdd_build_s", "s"},
    {"fdd.fprm_extract_s", "s"},
    {"core.spec_bdd_s", "s"},
    {"core.factor_s", "s"},
    {"core.resub_s", "s"},
    {"core.redundancy_s", "s"},
    {"core.verify_s", "s"},
    {"core.fprm_cubes", "count"},
    {"core.outputs_via_cubes", "count"},
    {"core.outputs_via_ofdd", "count"},
    {"core.redundancy_removed_nodes", "count"},
    {"bdd.cache_lookups", "count"},
    {"bdd.cache_hit_rate", "share"},
    {"bdd.unique_lookups", "count"},
    {"bdd.peak_live_nodes", "count"},
    {"bdd.gc_runs", "count"},
    {"bdd.nodes_freed", "count"},
    {"sched.tasks", "count"},
    {"sched.steals", "count"},
    {"sched.tasks_stolen", "count"},
    {"sched.busy_s", "s"},
    {"sched.idle_s", "s"},
    {"sched.max_queue_depth", "count"},
    {"sched.busy_share", "share"},
    {"sched.batch_run_s", "s"},
    {"sched.row_done_p50_s", "s"},
    {"sched.row_done_max_s", "s"},
    {"sched.long_pole_share", "share"},
    {"sched.inner_parallel_wall_s", "s"},
    {"flow.row_p50_s", "s"},
    {"flow.row_max_s", "s"},
    {"rewrite.rewrite_s", "s"},
    {"rewrite.cuts_s", "s"},
    {"rewrite.eval_s", "s"},
    {"rewrite.apply_s", "s"},
    {"rewrite.cuts_enumerated", "count"},
    {"rewrite.db_hits", "count"},
    {"rewrite.candidates", "count"},
    {"rewrite.replacements", "count"},
    {"rewrite.commit_ratio", "share"},
    {"equiv.check_s", "s"},
    {"equiv.check_max_s", "s"},
    {"equiv.checks", "count"},
    {"equiv.decided", "count"},
    {"testability.fault_sim_s", "s"},
    {"testability.fault_coverage", "share"},
    {"sim.full_passes", "count"},
    {"sim.incr_resims", "count"},
    {"sim.simd_blocks", "count"},
    {"mapping.map_s", "s"},
    {"power.estimate_s", "s"},
    {"power.exact_share", "share"},
    {"network.nodes_in", "count"},
    {"network.synthesize.nodes_out", "count"},
    {"network.baseline.nodes_out", "count"},
    {"network.rewrite.nodes_out", "count"},
    {"network.redundancy.nodes_out", "count"},
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& list,
                  const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto it = values.find(list[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::fprintf(stderr, "  %-32s %16.6f %s\n", list[i].name.c_str(), v,
                 list[i].unit.c_str());
    out << (i ? ", " : "") << "\"" << list[i].name << "\": {\"value\": "
        << json_number(v) << ", \"unit\": \"" << list[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// ---- driver ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string state_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2-serial|table2-jobs4|arith-scale --seed N --seconds S "
               "--trace 0|1 [--state-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val), have_seed = true;
      else if (key == "--seconds")
        a.seconds = std::stod(val), have_seconds = true;
      else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have_trace = true;
      } else if (key == "--state-dir") a.state_dir = val;
      else usage("unknown argument " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (a.workload != "table2-serial" && a.workload != "table2-jobs4" &&
      a.workload != "arith-scale")
    usage("unknown workload '" + a.workload + "'");
  if (!have_seed || !have_seconds || !have_trace || a.seconds <= 0.0)
    usage("--seed, --seconds (> 0) and --trace are required");
  return a;
}

/// The workload's generated inputs and the time set-up took.
struct Setup {
  std::vector<Benchmark> benches;
  std::vector<PatternSet> fault_patterns; ///< arith-scale only
  double seconds = 0.0;
  int reps = 0;
};

/// Fault-simulation patterns of one arith-scale circuit, drawn from the
/// seed by the benchmark.
PatternSet fault_patterns(std::size_t pis, uint64_t seed,
                          const std::string& name) {
  uint64_t state = seed ^ fnv1a64(name) ^ 0xFA17FA17ull;
  PatternSet ps(pis, kFaultPatterns);
  for (BitVec& row : ps.bits)
    for (std::size_t w = 0; w < row.words(); ++w)
      row.word(w) = perfbench::splitmix64(state);
  return ps;
}

/// Generates the workload's inputs, timed as set-up.
Setup run_setup(const Args& a, Tracer& tr) {
  Setup s;
  // First-use singletons: loaded once per process, timed once.
  const double t0 = wall_now();
  (void)rw::RewriteDb::instance();
  (void)mcnc_library();
  const double singletons = wall_now() - t0;

  // Every circuit's inputs are generated once per round; rounds repeat
  // kSetupReps times, or until they have taken about a second. The
  // per-circuit medians are summed, so a slow moment spoils one sample of
  // one circuit rather than a whole repetition.
  const bool arith = a.workload == "arith-scale";
  const std::vector<std::string>& names =
      arith ? kArithCircuits : benchmark_names();
  const std::size_t n = names.size();
  s.benches.resize(n);
  if (arith) s.fault_patterns.resize(n);
  std::vector<std::vector<double>> times(n);
  double spent = 0.0;
  for (s.reps = 0;
       s.reps < kSetupReps || (s.reps < kMaxSetupReps && spent < 1.0);
       ++s.reps) {
    for (std::size_t i = 0; i < n; ++i) {
      const double r0 = wall_now();
      {
        const auto span = tr.span("make_benchmark", names[i]);
        s.benches[i] = make_benchmark(names[i]);
      }
      if (arith)
        s.fault_patterns[i] =
            fault_patterns(s.benches[i].spec.pi_count(), a.seed, names[i]);
      times[i].push_back(wall_now() - r0);
      spent += times[i].back();
    }
  }
  double generation = 0.0;
  for (const std::vector<double>& t : times) generation += median(t);
  s.seconds = singletons + generation;
  std::fprintf(stderr,
               "perfbench: set-up singletons %.4fs, generation %.4fs "
               "(per-circuit medians over %d rounds)\n",
               singletons, generation, s.reps);
  return s;
}

Pass run_pass(const Args& a, const Setup& s, Tracer& tr) {
  if (a.workload == "table2-serial")
    return table2_serial_pass(s.benches, a.seed, tr);
  if (a.workload == "table2-jobs4")
    return table2_batch_pass(s.benches, a.seed, kBatchJobs, /*inner=*/false,
                             tr);
  Pass p = arith_pass(s.benches, s.fault_patterns, a.seed, tr);
  fill_spec_columns(p.qor, s.benches, a.seed);
  return p;
}

/// Span-derived per-layer metrics of a traced pass.
void absorb_spans(Pass& p, const Tracer& tr) {
  const std::map<std::string, double> self = tr.self_seconds();
  const auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  p.layer["flow.run_flow_self_s"] = get("run_flow") + get("arith_flow");
  if (get("synthesize") > 0.0) p.layer["core.synthesize_s"] = get("synthesize");
  if (get("baseline_synthesize") > 0.0)
    p.layer["baseline.synthesize_s"] = get("baseline_synthesize");
  if (get("map_network") > 0.0) p.layer["mapping.map_s"] = get("map_network");
  if (get("estimate_power") > 0.0)
    p.layer["power.estimate_s"] = get("estimate_power");
  p.layer["sched.batch_run_s"] = get("batch_run");
  p.layer["rewrite.rewrite_s"] = get("rewrite_network");
  p.layer["testability.fault_sim_s"] = get("fault_simulate");
  if (get("remove_xor_redundancy") > 0.0)
    p.layer["core.redundancy_s"] = get("remove_xor_redundancy");
  const std::vector<double> eq = tr.durations("check_equivalence");
  p.layer["equiv.check_s"] = median(eq);
  p.layer["equiv.check_max_s"] =
      eq.empty() ? 0.0 : *std::max_element(eq.begin(), eq.end());
  std::vector<double> rows = tr.durations("run_flow");
  for (const double d : tr.durations("arith_flow")) rows.push_back(d);
  if (!rows.empty()) {
    p.layer["flow.row_p50_s"] = median(rows);
    p.layer["flow.row_max_s"] = *std::max_element(rows.begin(), rows.end());
  }
}

/// Ratios and counts derived from a pass's accumulated counters.
void finish_layers(Pass& p) {
  auto& l = p.layer;
  const auto ratio = [&](const char* num, const char* den) {
    return l[den] > 0.0 ? l[num] / l[den] : 0.0;
  };
  l["bdd.cache_hit_rate"] = ratio("bdd.cache_hits", "bdd.cache_lookups");
  l["rewrite.commit_ratio"] =
      ratio("rewrite.replacements", "rewrite.candidates");
  l["power.exact_share"] = ratio("power.exact_estimates", "power.estimates");
  l["testability.fault_coverage"] =
      ratio("testability.detected", "testability.faults");
  l["equiv.checks"] = static_cast<double>(p.checks);
  l["equiv.decided"] = static_cast<double>(p.decided);
}

} // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Tracer setup_tracer(a.trace);
  const Setup setup = run_setup(a, setup_tracer);

  // The serial columns the determinism checks compare against: stored by
  // any table2-serial run of this binary in the state directory, or
  // computed here (outside every timed section) when none is stored.
  std::optional<SerialReference> ref;
  const auto get_reference = [&]() -> const SerialReference& {
    if (!ref) ref = load_reference(a.state_dir, setup.benches.size());
    if (!ref) {
      std::fprintf(stderr, "perfbench: computing the serial reference\n");
      Tracer untraced(false);
      Pass sp = table2_serial_pass(setup.benches, a.seed, untraced);
      store_reference(a.state_dir, a.seed, sp);
      ref = SerialReference{a.seed, sp.qor, sp.row_seconds};
    }
    return *ref;
  };

  std::vector<Pass> passes;
  const double start = wall_now();
  Tracer off(false);
  do {
    passes.push_back(run_pass(a, setup, off));
  } while (!a.trace && wall_now() - start + passes.back().wall <= a.seconds);

  Tracer tr(a.trace);
  if (a.trace) passes.push_back(run_pass(a, setup, tr));
  const double peak_rss = peak_rss_mb();

  double inner_wall = 0.0;
  // Determinism: every pass of a run ships the same columns (this also
  // compares the traced pass with the untraced one).
  for (std::size_t k = 1; k < passes.size(); ++k)
    check_same_columns(passes[k], passes[0],
                       a.trace && k + 1 == passes.size() ? "traced-pass"
                                                         : "repeated-pass");
  if (a.workload == "table2-serial") {
    for (const Pass& p : passes)
      if (p.failed_count() == 0) {
        store_reference(a.state_dir, a.seed, p);
        break;
      }
  } else if (a.workload == "table2-jobs4") {
    // The traced run also makes one pass with level-2 parallelism, whose
    // wall time is bimodal (see README.md); it is reported per layer only.
    if (a.trace) {
      Pass inner = table2_batch_pass(setup.benches, a.seed, kBatchJobs,
                                     /*inner=*/true, off);
      inner_wall = inner.wall;
      passes.insert(passes.end() - 1, std::move(inner));
    }
    const SerialReference& r = get_reference();
    for (Pass& p : passes) check_against_reference(p, r, a.seed, "jobs-4");
  }

  std::size_t attempted = 0, failed = 0, checks = 0, decided = 0;
  std::vector<double> walls, cpus;
  for (const Pass& p : passes) {
    attempted += p.qor.size();
    failed += p.failed_count();
    checks += p.checks;
    decided += p.decided;
    walls.push_back(p.wall);
    cpus.push_back(p.cpu);
    for (const std::string& f : p.failures)
      std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::fprintf(stderr, "perfbench: %s seed %llu, set-up %.3fs\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               setup.seconds);
  for (std::size_t k = 0; k < passes.size(); ++k)
    std::fprintf(stderr, "perfbench: pass %zu%s wall %.3fs cpu %.3fs\n", k,
                 a.trace && k + 1 == passes.size() ? " (traced)" : "",
                 passes[k].wall, passes[k].cpu);

  std::map<std::string, double> values;
  if (!a.trace) {
    const Pass& p = passes.front();
    values["setup_s"] = setup.seconds;
    values["wall_s"] = median(walls);
    values["cpu_s"] = median(cpus);
    values["peak_rss_mb"] = peak_rss;
    values["ok_share"] =
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
    for (const Qor& q : p.qor) {
      values["ours_lits"] += static_cast<double>(q.ours_lits);
      values["ours_gates"] += static_cast<double>(q.ours_gates);
      values["ours_map_lits"] += static_cast<double>(q.ours_map_lits);
      values["ours_power"] += q.ours_power;
      values["base_lits"] += static_cast<double>(q.base_lits);
      values["base_gates"] += static_cast<double>(q.base_gates);
      values["base_map_lits"] += static_cast<double>(q.base_map_lits);
      values["base_power"] += q.base_power;
    }
    values["verify_decided_share"] =
        checks == 0 ? 0.0
                    : static_cast<double>(decided) /
                          static_cast<double>(checks);
    print_result(failed == 0, attempted, failed, kEndToEnd, values);
  } else {
    Pass& t = passes.back();
    absorb_spans(t, tr);
    t.layer["benchgen.make_benchmark_s"] =
        setup_tracer.self_seconds()["make_benchmark"] / setup.reps;
    t.layer["trace.overhead_s"] = t.wall - passes.front().wall;
    t.layer["sched.inner_parallel_wall_s"] = inner_wall;
    if (a.workload == "table2-jobs4") {
      // The long pole: the slowest row of a serial run against this
      // batch's wall time.
      const SerialReference& r = get_reference();
      const double longest =
          *std::max_element(r.row_seconds.begin(), r.row_seconds.end());
      t.layer["sched.long_pole_share"] = longest / t.wall;
      t.layer["flow.row_p50_s"] = median(r.row_seconds);
      t.layer["flow.row_max_s"] = longest;
    }
    finish_layers(t);
    if (!a.state_dir.empty())
      tr.write_chrome_trace(a.state_dir + "/trace-" + a.workload + ".json");
    print_result(failed == 0, attempted, failed, kPerLayer, t.layer);
  }
  return 0;
}
