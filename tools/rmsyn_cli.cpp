// rmsyn command-line driver.
//
//   rmsyn_cli synth    <input> [-o out.blif] [--method cubes|ofdd|best]
//                      [--no-redundancy] [--no-resub] [--rewrite]
//                      [--trace out.json]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//   rmsyn_cli rewrite  <input> [-o out.blif] [--jobs N] [--passes N]
//                      [--cut-limit N] [--db file]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//   rmsyn_cli rewrite-dbgen [-o out.txt]
//   rmsyn_cli baseline <input> [-o out.blif]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//   rmsyn_cli map      <input> [--lib file.genlib]
//   rmsyn_cli verify   <input-a> <input-b>
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//   rmsyn_cli power    <input>
//   rmsyn_cli atpg     <input> [--jobs N] [--no-drop]
//   rmsyn_cli dump     <input> [-o out.blif]   (spec as BLIF, unsynthesized)
//   rmsyn_cli table2   [circuit ...] [--keep-going] [--jobs N] [--retries N]
//                      [--rewrite]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//                      [--trace out.json] [--report out.json]
//                      [--profile out.folded] [--heartbeat sec]
//   rmsyn_cli batch    <manifest> [--jobs N] [--keep-going] [--retries N]
//                      [--journal out.jsonl | --resume journal.jsonl]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//                      [--batch-timeout sec] [--batch-node-limit n]
//                      [--no-mapping] [--no-power]
//                      [--trace out.json] [--report out.json]
//                      [--profile out.folded] [--heartbeat sec]
//   rmsyn_cli validate-report <report.json> <schema.json>
//   rmsyn_cli report-diff <baseline.json> <candidate.json>
//                      [--ignore-timing] [--noise-pct P] [--noise-floor sec]
//   rmsyn_cli list
//
// <input> is a .blif file, a .pla file, or the name of a built-in Table-2
// benchmark circuit (see `rmsyn_cli list`). The batch manifest is a text
// file with one input per line ('#' comments and blank lines skipped).
//
// Resource budgets (--timeout wall-clock seconds per budget slice,
// --node-limit peak live DD nodes, --step-limit cooperative polls) put the
// flow on the degradation ladder instead of running unbounded; the status
// is printed and reflected in the exit code. Exit codes are stable (see
// util/errors.hpp and README "Exit codes"): 0 ok, 1 usage, 2 degraded,
// 3 transient failure, 4 fatal input (parse error), 5 invariant/verify.
//
// Resilience (DESIGN.md §12): --retries N re-runs transient-retryable
// failed rows with x2-escalated budget slices; batch --journal FILE
// appends one fsync'd JSONL checkpoint per settled row; batch --resume
// FILE replays completed journal rows and re-runs the rest; --paranoid
// (any command) runs the deep network invariant checker after every
// structural transform; --fault-plan seed=S,truncate=N,corrupt=N,arena=N,
// journal=N arms deterministic fault injection for testing. --jobs N runs N circuits concurrently
// on the work-stealing scheduler (sched/batch.hpp); every result column is
// bit-identical to --jobs 1. --batch-timeout/--batch-node-limit are budgets
// for the whole batch, shared by all workers.
//
// Observability (src/obs): --trace writes a Chrome trace-event JSON
// (chrome://tracing / Perfetto) merged from every worker thread's spans;
// --report writes the machine-readable run report (schema:
// data/report_schema.json, checked by `validate-report`); --profile writes
// a folded-stack attribution profile (flamegraph.pl / speedscope input)
// and embeds the tree in the report; --heartbeat N prints a progress line
// (rows done, current circuit/stage, live DD nodes) every N seconds while
// the run is in flight. None of them perturbs the result columns.
// `report-diff` compares two reports (or BENCH_*.json files) and exits 0
// on no regression, 2 on a regression, 4 on schema mismatch — the CI
// baseline gate runs it with --ignore-timing against data/baselines/.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/script.hpp"
#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "equiv/equiv.hpp"
#include "flow/flow.hpp"
#include "mapping/mapper.hpp"
#include "network/io.hpp"
#include "network/stats.hpp"
#include "network/transform.hpp"
#include "obs/diff.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "power/power.hpp"
#include "rewrite/database.hpp"
#include "rewrite/rewrite.hpp"
#include "sched/batch.hpp"
#include "sched/pool.hpp"
#include "util/errors.hpp"
#include "util/faultplan.hpp"
#include "util/osinfo.hpp"
#include "util/stopwatch.hpp"
#include "sop/pla.hpp"
#include "testability/faults.hpp"

namespace {

using namespace rmsyn;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Reads a whole file, routing the bytes through the FaultPlan's IO
/// corruption/truncation points (a no-op unless --fault-plan armed them).
std::string load_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return apply_io_faults(ss.str());
}

Network load_input(const std::string& spec) {
  if (ends_with(spec, ".blif")) return read_blif_string(load_file_bytes(spec));
  if (ends_with(spec, ".pla")) {
    const PlaFile pla = read_pla_string(load_file_bytes(spec));
    return network_from_covers(pla.outputs, pla.num_inputs);
  }
  if (ends_with(spec, ".aag") || ends_with(spec, ".aig"))
    return read_aiger_string(load_file_bytes(spec));
  if (has_benchmark(spec)) return make_benchmark(spec).spec;
  throw std::runtime_error("unknown input '" + spec +
                           "' (not a .blif/.pla/.aag/.aig file or benchmark "
                           "name)");
}

double parse_seconds(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size() || !(d > 0.0)) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    throw std::runtime_error(flag + ": bad value '" + v +
                             "' (want seconds > 0, e.g. 0.001)");
  }
}

std::size_t parse_count(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const unsigned long long n = std::stoull(v, &pos);
    if (pos != v.size() || n == 0) throw std::invalid_argument(v);
    return static_cast<std::size_t>(n);
  } catch (const std::exception&) {
    throw std::runtime_error(flag + ": bad value '" + v +
                             "' (want a positive integer)");
  }
}

/// Consumes --timeout/--node-limit/--step-limit at args[i]; returns true
/// (with i advanced past the value) when it did.
bool parse_limit_flag(const std::vector<std::string>& args, std::size_t& i,
                      ResourceLimits& limits) {
  const std::string& a = args[i];
  if (a == "--timeout" && i + 1 < args.size()) {
    limits.deadline_seconds = parse_seconds(a, args[++i]);
    return true;
  }
  if (a == "--node-limit" && i + 1 < args.size()) {
    limits.node_limit = parse_count(a, args[++i]);
    return true;
  }
  if (a == "--step-limit" && i + 1 < args.size()) {
    limits.step_limit = static_cast<uint64_t>(parse_count(a, args[++i]));
    return true;
  }
  return false;
}

int status_exit_code(const FlowStatus& st);

void write_output(const Network& net, const std::string& path,
                  const std::string& model) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  write_blif(out, decompose2(net), model);
  std::printf("wrote %s\n", path.c_str());
}

int cmd_synth(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("synth: missing input");
  SynthOptions opt;
  ResourceLimits limits;
  std::string out_path;
  std::string trace_path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) out_path = args[++i];
    else if (args[i] == "--trace" && i + 1 < args.size()) trace_path = args[++i];
    else if (args[i] == "--method" && i + 1 < args.size()) {
      const std::string m = args[++i];
      if (m == "cubes") opt.method = FactorMethod::Cubes;
      else if (m == "ofdd") opt.method = FactorMethod::Ofdd;
      else if (m == "best") opt.method = FactorMethod::Best;
      else throw std::runtime_error("synth: bad method " + m);
    } else if (args[i] == "--no-redundancy") {
      opt.run_redundancy_removal = false;
    } else if (args[i] == "--no-resub") {
      opt.run_resub = false;
    } else if (args[i] == "--rewrite") {
      opt.run_rewrite = true;
    } else if (parse_limit_flag(args, i, limits)) {
      // consumed
    } else {
      throw std::runtime_error("synth: unknown option " + args[i]);
    }
  }
  std::optional<ResourceGovernor> gov;
  if (!limits.unlimited()) {
    gov.emplace(limits);
    opt.governor = &*gov;
  }
  const Network spec = load_input(args[0]);
  if (!trace_path.empty()) {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().enable();
  }
  SynthReport rep;
  Network result;
  {
    RMSYN_SPAN("synth");
    result = synthesize(spec, opt, &rep);
  }
  if (!trace_path.empty()) {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().write_chrome_trace(trace_path);
    std::printf("wrote trace %s\n", trace_path.c_str());
  }
  std::printf("synthesized %s: %s in %.3fs (status %s)\n", args[0].c_str(),
              to_string(rep.stats).c_str(), rep.seconds,
              rep.status.to_string().c_str());
  std::printf("FPRM cubes per output:");
  for (const auto c : rep.fprm_cube_counts) std::printf(" %zu", c);
  std::printf("\nredundancy: %zu XOR->OR, %zu XOR->AND, %zu fanins removed "
              "(%zu gates proven irreducible by pattern simulation)\n",
              rep.redundancy.reduced_to_or, rep.redundancy.reduced_to_andnot,
              rep.redundancy.fanins_removed, rep.redundancy.pattern_pruned);
  std::printf("dd kernel: cache hit rate %.1f%%, peak live nodes %zu, "
              "%llu gc runs, %llu reorders\n",
              100.0 * rep.bdd.cache_hit_rate(), rep.bdd.peak_live_nodes,
              static_cast<unsigned long long>(rep.bdd.gc_runs),
              static_cast<unsigned long long>(rep.bdd.reorder_runs));
  if (!rep.rewrite.empty()) {
    obs::MetricsRegistry m;
    stat_fields::absorb(m, "rewrite.", rep.rewrite);
    std::printf("%s", obs::format_metrics_summary(m).c_str());
  }
  if (!rep.stages.empty()) std::printf("%s", rep.stages.to_string().c_str());
  write_output(result, out_path, "rmsyn_synth");
  return status_exit_code(rep.status);
}

int cmd_baseline(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("baseline: missing input");
  BaselineOptions opt;
  ResourceLimits limits;
  std::string out_path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) out_path = args[++i];
    else if (parse_limit_flag(args, i, limits)) {
      // consumed
    } else {
      throw std::runtime_error("baseline: unknown option " + args[i]);
    }
  }
  std::optional<ResourceGovernor> gov;
  if (!limits.unlimited()) {
    gov.emplace(limits);
    opt.governor = &*gov;
  }
  const Network spec = load_input(args[0]);
  BaselineReport rep;
  const Network result = baseline_synthesize(spec, opt, &rep);
  std::printf("baseline %s: %s in %.3fs (SOP lits %d -> %d, %d divisors "
              "extracted, status %s)\n",
              args[0].c_str(), to_string(rep.stats).c_str(), rep.seconds,
              rep.sop_lits_initial, rep.sop_lits_final, rep.nodes_extracted,
              rep.status.to_string().c_str());
  write_output(result, out_path, "rmsyn_baseline");
  return status_exit_code(rep.status);
}

int cmd_map(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("map: missing input");
  const CellLibrary* lib = &mcnc_library();
  CellLibrary custom;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--lib" && i + 1 < args.size()) {
      std::ifstream in(args[++i]);
      if (!in) throw std::runtime_error("cannot open library");
      std::ostringstream ss;
      ss << in.rdbuf();
      custom = parse_genlib(ss.str());
      lib = &custom;
    } else {
      throw std::runtime_error("map: unknown option " + args[i]);
    }
  }
  const Network net = load_input(args[0]);
  const MapResult r = map_network(net, *lib);
  std::printf("mapped %s: %zu cells, %zu literals, area %.1f\n",
              args[0].c_str(), r.gate_count, r.literal_count, r.area);
  // Cell histogram.
  std::map<std::string, int> hist;
  for (const auto& g : r.gates) ++hist[g.cell];
  for (const auto& [name, count] : hist)
    std::printf("  %-8s x%d\n", name.c_str(), count);
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  if (args.size() < 2) throw std::runtime_error("verify: need two inputs");
  ResourceLimits limits;
  for (std::size_t i = 2; i < args.size(); ++i)
    if (!parse_limit_flag(args, i, limits))
      throw std::runtime_error("verify: unknown option " + args[i]);
  const Network a = load_input(args[0]);
  const Network b = load_input(args[1]);
  std::optional<ResourceGovernor> gov;
  if (!limits.unlimited()) gov.emplace(limits);
  const auto r = check_equivalence(a, b, 0xC0FFEE, gov ? &*gov : nullptr);
  if (!r.decided) std::printf("UNDECIDED: %s\n", r.reason.c_str());
  else if (r.equivalent) std::printf("EQUIVALENT\n");
  else std::printf("NOT EQUIVALENT: %s\n", r.reason.c_str());
  std::printf("output pairs proved: %zu by structure, %zu by BDD (of %zu)\n",
              r.proved_by_structure, r.proved_by_bdd, a.po_count());
  if (!r.decided) return ExitCode::BudgetDegraded;
  return r.equivalent ? ExitCode::Ok : ExitCode::InvariantOrVerify;
}

int cmd_power(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("power: missing input");
  const Network net = load_input(args[0]);
  const PowerReport r = estimate_power(net);
  std::printf("power %s: total %.4f (switching sum %.4f over %zu nets, %s "
              "probabilities)\n",
              args[0].c_str(), r.total, r.switching_sum, r.nets,
              r.exact ? "exact BDD" : "simulated");
  return 0;
}

int parse_jobs(const std::string& flag, const std::string& v) {
  const std::size_t n = parse_count(flag, v);
  if (n > 256) throw std::runtime_error(flag + ": at most 256 jobs");
  return static_cast<int>(n);
}

int cmd_atpg(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("atpg: missing input");
  int jobs = 1;
  FaultSimOptions fo;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--jobs" && i + 1 < args.size())
      jobs = parse_jobs("--jobs", args[++i]);
    else if (args[i] == "--no-drop")
      fo.drop_faults = false;
    else
      throw std::runtime_error("atpg: unknown option " + args[i]);
  }
  const Network spec = load_input(args[0]);
  SynthReport rep;
  const Network net = synthesize(spec, {}, &rep);
  const PatternSet tests = fprm_pattern_set(
      net.pi_count(), rep.forms, /*include_sa1=*/true, std::size_t{1} << 16);
  SimStats stats;
  fo.stats = &stats;
  std::optional<ThreadPool> pool;
  if (jobs > 1) {
    pool.emplace(jobs - 1); // the caller helps, as in table2/batch
    fo.pool = &*pool;
  }
  const auto sim = fault_simulate(net, tests, fo);
  std::printf("synthesized network: %zu faults, FPRM-derived test set of %zu "
              "patterns detects %zu (%.1f%% coverage)\n",
              sim.total, tests.num_patterns, sim.detected,
              100.0 * sim.coverage());
  for (const auto& f : sim.undetected)
    std::printf("  undetected: %s\n", to_string(f, net).c_str());
  obs::MetricsRegistry m;
  if (!stats.empty()) stat_fields::absorb(m, "sim.", stats);
  std::printf("%s", obs::format_metrics_summary(m).c_str());
  return 0;
}

int cmd_dump(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("dump: missing input");
  std::string out_path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) out_path = args[++i];
    else throw std::runtime_error("dump: unknown option " + args[i]);
  }
  const Network net = load_input(args[0]);
  if (out_path.empty()) {
    std::printf("%s", write_blif_string(decompose2(net), args[0]).c_str());
  } else {
    write_output(net, out_path, args[0]);
  }
  return 0;
}

int cmd_rewrite(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("rewrite: missing input");
  rw::RewriteOptions opt;
  ResourceLimits limits;
  std::string out_path;
  int jobs = 1;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) out_path = args[++i];
    else if (args[i] == "--jobs" && i + 1 < args.size())
      jobs = parse_jobs("--jobs", args[++i]);
    else if (args[i] == "--passes" && i + 1 < args.size())
      opt.max_passes = static_cast<int>(parse_count("--passes", args[++i]));
    else if (args[i] == "--cut-limit" && i + 1 < args.size())
      opt.cut_limit = static_cast<int>(parse_count("--cut-limit", args[++i]));
    else if (args[i] == "--db" && i + 1 < args.size())
      opt.db_path = args[++i];
    else if (parse_limit_flag(args, i, limits)) {
      // consumed
    } else {
      throw std::runtime_error("rewrite: unknown option " + args[i]);
    }
  }
  const Network spec = load_input(args[0]);
  std::optional<ResourceGovernor> gov;
  if (!limits.unlimited()) {
    gov.emplace(limits);
    opt.governor = &*gov;
  }
  std::optional<ThreadPool> pool;
  if (jobs > 1) {
    pool.emplace(jobs);
    opt.pool = &*pool;
  }
  Network net = spec;
  Stopwatch sw;
  const rw::RewriteStats st = rw::rewrite_network(net, opt);
  const double seconds = sw.seconds();
  // Every replacement was verified in-pass; this is the belt-and-braces
  // whole-network check the paper's flow runs (SIS `verify`). It shares
  // the run's budget: output cones the pass left alone are proved by the
  // structural miter, and only rewritten cones reach the BDD phase, which
  // comes back undecided on exhaustion instead of hanging on BDD-hostile
  // functions like wide multipliers.
  const auto check =
      check_equivalence(spec, net, 0xC0FFEE, gov ? &*gov : nullptr);
  if (check.decided && !check.equivalent)
    throw RmsynError(ErrorCode::VerifyMismatch,
                     "rewrite: result not equivalent to input: " +
                         check.reason);
  obs::MetricsRegistry m;
  if (!st.empty()) stat_fields::absorb(m, "rewrite.", st);
  std::printf("%s", obs::format_metrics_summary(m).c_str());
  std::printf("rewrite %s: %s in %.3fs (equivalence %s)\n", args[0].c_str(),
              to_string(network_stats(net)).c_str(), seconds,
              check.decided ? "verified" : "undecided");
  write_output(net, out_path, "rmsyn_rewrite");
  const bool tripped =
      gov.has_value() && gov->trip_kind() != TripKind::None;
  return tripped ? ExitCode::BudgetDegraded : ExitCode::Ok;
}

int cmd_rewrite_dbgen(const std::vector<std::string>& args) {
  std::string out_path = "data/rewrite_db_k4.txt";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) out_path = args[++i];
    else throw std::runtime_error("rewrite-dbgen: unknown option " + args[i]);
  }
  Stopwatch sw;
  const rw::RewriteDb db = rw::RewriteDb::generate();
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  db.save(out);
  int max_cost = 0;
  long total_cost = 0;
  for (const auto& e : db.entries()) {
    max_cost = std::max(max_cost, e.cost);
    total_cost += e.cost;
  }
  std::printf("rewrite-dbgen: %zu NPN classes in %.2fs (max cost %d, "
              "total %ld) -> %s\n",
              db.size(), sw.seconds(), max_cost, total_cost,
              out_path.c_str());
  return 0;
}

/// Observability switches shared by table2 and batch.
struct RunObs {
  std::string trace_path;   ///< --trace: Chrome trace-event JSON
  std::string report_path;  ///< --report: machine-readable run report
  std::string profile_path; ///< --profile: folded-stack attribution tree
  double heartbeat_seconds = 0.0; ///< --heartbeat: progress-line period
  bool tracing() const { return !trace_path.empty(); }
  bool profiling() const { return !profile_path.empty(); }
};

/// Consumes --trace/--report/--profile/--heartbeat at args[i]; returns
/// true (with i advanced past the value) when it did.
bool parse_obs_flag(const std::vector<std::string>& args, std::size_t& i,
                    RunObs& o) {
  const std::string& a = args[i];
  if (a == "--trace" && i + 1 < args.size()) {
    o.trace_path = args[++i];
    return true;
  }
  if (a == "--report" && i + 1 < args.size()) {
    o.report_path = args[++i];
    return true;
  }
  if (a == "--profile" && i + 1 < args.size()) {
    o.profile_path = args[++i];
    return true;
  }
  if (a == "--heartbeat" && i + 1 < args.size()) {
    o.heartbeat_seconds = parse_seconds(a, args[++i]);
    return true;
  }
  return false;
}

/// Arms the tracer and/or profiler for a run (idempotent reset + enable).
void start_tracing(const RunObs& o) {
  if (o.tracing()) {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().enable();
  }
  if (o.profiling()) {
    obs::Profiler::instance().reset();
    obs::Profiler::instance().enable();
  }
}

/// Writes the --trace/--profile/--report artifacts after a run. `command`
/// names the subcommand for the report; `sched` is null when the run was
/// serial.
void write_run_artifacts(const RunObs& o, const char* command, int jobs,
                         const std::vector<FlowRow>& rows,
                         const SchedStats* sched, double wall_seconds) {
  if (o.tracing()) {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().write_chrome_trace(o.trace_path);
    std::printf("wrote trace %s\n", o.trace_path.c_str());
  }
  if (o.profiling()) {
    obs::Profiler::instance().disable();
    obs::Profiler::instance().write_folded(o.profile_path);
    std::printf("wrote profile %s\n", o.profile_path.c_str());
  }
  if (o.report_path.empty()) return;
  obs::ReportBuilder rb(command, jobs);
  for (const FlowRow& r : rows) rb.add_row(flow_row_json(r));
  obs::MetricsRegistry m = collect_flow_metrics(rows);
  if (sched != nullptr) m.absorb_sched(*sched);
  m.set("os.peak_rss_mb", peak_rss_mb());
  rb.set_metrics(m);
  if (o.tracing())
    rb.set_trace(obs::Tracer::instance().summary(), wall_seconds,
                 o.trace_path);
  if (o.profiling())
    rb.set_profile(obs::Profiler::instance().merged(), o.profile_path);
  obs::write_json_file(o.report_path, rb.finish(wall_seconds));
  std::printf("wrote report %s\n", o.report_path.c_str());
}

/// Prints the p50/p99 row-latency line batch and table2 share (the ROADMAP
/// service-era SLO numbers, from the flow.row_seconds histogram).
void print_row_latency(const std::vector<FlowRow>& rows) {
  obs::MetricValue lat;
  lat.kind = obs::MetricKind::Histogram;
  for (const FlowRow& r : rows)
    if (r.row_seconds > 0.0) lat.observe_value(r.row_seconds);
  if (lat.count == 0) return;
  std::printf("row latency: p50 %.3fs, p99 %.3fs, max %.3fs over %llu rows\n",
              lat.percentile(0.5), lat.percentile(0.99), lat.max,
              static_cast<unsigned long long>(lat.count));
}

/// A row the batch runner never started because the budget was cancelled
/// (keep_going=false after a failure, batch deadline, or explicit cancel).
bool row_was_cancelled(const FlowRow& r) {
  return r.ours_status.is_failed() && r.ours_status.stage == "batch";
}

/// Exit code from the worst status (stable contract, see util/errors.hpp):
/// ok = 0, degraded = 2, failed = the taxonomy mapping of its error code
/// (3 transient, 4 fatal input, 5 invariant/verify).
int status_exit_code(const FlowStatus& st) {
  if (st.severity() == 0) return ExitCode::Ok;
  if (st.severity() == 1) return ExitCode::BudgetDegraded;
  return st.code == ErrorCode::None ? ExitCode::TransientFailure
                                    : exit_code_for_error(st.code);
}

int cmd_table2(const std::vector<std::string>& args) {
  BatchOptions bopt;
  bopt.keep_going = false;
  RunObs obs_opt;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--keep-going") bopt.keep_going = true;
    else if (args[i] == "--jobs" && i + 1 < args.size()) {
      ++i;
      bopt.jobs = parse_jobs("--jobs", args[i]);
    } else if (args[i] == "--retries" && i + 1 < args.size()) {
      ++i;
      bopt.retries = static_cast<int>(parse_count("--retries", args[i]));
    } else if (args[i] == "--rewrite") {
      bopt.flow.synth.run_rewrite = true;
    } else if (parse_limit_flag(args, i, bopt.flow.limits)) {
      // consumed
    } else if (parse_obs_flag(args, i, obs_opt)) {
      // consumed
    } else if (!args[i].empty() && args[i][0] == '-') {
      throw std::runtime_error("table2: unknown option " + args[i]);
    } else {
      names.push_back(args[i]);
    }
  }
  if (names.empty()) names = benchmark_names();
  std::vector<Benchmark> benches;
  benches.reserve(names.size());
  for (const auto& n : names) benches.push_back(make_benchmark(n));

  obs::OutputSink sink;
  std::optional<obs::Heartbeat> heartbeat;
  if (obs_opt.heartbeat_seconds > 0.0)
    heartbeat.emplace(sink, obs_opt.heartbeat_seconds);
  start_tracing(obs_opt);
  Stopwatch sw;
  BatchResult result;
  {
    RMSYN_SPAN("table2"); // root span: must close before the trace export
    BatchRunner runner(bopt);
    result = runner.run(benches);
  }
  const double wall = sw.seconds();
  if (heartbeat.has_value()) heartbeat->stop();
  write_run_artifacts(obs_opt, "table2", bopt.jobs, result.rows,
                      bopt.jobs > 1 ? &result.sched : nullptr, wall);

  if (result.worst.is_failed() && !bopt.keep_going) {
    // Print what actually ran (everything up to the failure in serial
    // order; possibly more under --jobs) and abort, as the serial sweep
    // always has.
    std::vector<FlowRow> ran;
    std::string culprit;
    for (const auto& r : result.rows) {
      if (row_was_cancelled(r)) continue;
      ran.push_back(r);
      if (r.worst_status().is_failed() && culprit.empty())
        culprit = r.circuit + " failed (" + r.worst_status().to_string() + ")";
    }
    std::printf("%s", format_table2(ran).c_str());
    std::fprintf(stderr,
                 "table2: %s; aborting sweep (use --keep-going to continue)\n",
                 culprit.c_str());
    return 3;
  }
  std::printf("%s", format_table2(result.rows).c_str());
  print_row_latency(result.rows);
  std::printf("%s", format_dd_kernel_summary(result.rows).c_str());
  if (bopt.jobs > 1)
    std::printf("%s", format_sched_summary(result.sched).c_str());
  return status_exit_code(result.worst);
}

int cmd_batch(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("batch: missing manifest file");
  BatchOptions bopt;
  RunObs obs_opt;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--keep-going") bopt.keep_going = true;
    else if (args[i] == "--jobs" && i + 1 < args.size()) {
      ++i;
      bopt.jobs = parse_jobs("--jobs", args[i]);
    } else if (args[i] == "--batch-timeout" && i + 1 < args.size()) {
      ++i;
      bopt.batch_deadline_seconds = parse_seconds("--batch-timeout", args[i]);
    } else if (args[i] == "--batch-node-limit" && i + 1 < args.size()) {
      ++i;
      bopt.batch_allocation_budget =
          static_cast<uint64_t>(parse_count("--batch-node-limit", args[i]));
    } else if (args[i] == "--retries" && i + 1 < args.size()) {
      ++i;
      bopt.retries = static_cast<int>(parse_count("--retries", args[i]));
    } else if (args[i] == "--journal" && i + 1 < args.size()) {
      ++i;
      bopt.journal_path = args[i];
    } else if (args[i] == "--resume" && i + 1 < args.size()) {
      ++i;
      bopt.journal_path = args[i];
      bopt.resume = true;
    } else if (args[i] == "--no-mapping") bopt.flow.run_mapping = false;
    else if (args[i] == "--no-power") bopt.flow.run_power = false;
    else if (args[i] == "--rewrite") bopt.flow.synth.run_rewrite = true;
    else if (parse_limit_flag(args, i, bopt.flow.limits)) {
      // consumed
    } else if (parse_obs_flag(args, i, obs_opt)) {
      // consumed
    } else {
      throw std::runtime_error("batch: unknown option " + args[i]);
    }
  }

  // Manifest: one benchmark name or .pla/.blif path per line.
  std::ifstream in(args[0]);
  if (!in) throw std::runtime_error("cannot open manifest " + args[0]);
  std::vector<Benchmark> benches;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t a = line.find_first_not_of(" \t\r");
    if (a == std::string::npos) continue;
    const std::size_t b = line.find_last_not_of(" \t\r");
    const std::string entry = line.substr(a, b - a + 1);
    if (has_benchmark(entry)) {
      benches.push_back(make_benchmark(entry));
    } else {
      Benchmark bench;
      bench.name = entry;
      bench.spec = load_input(entry);
      bench.num_inputs = static_cast<int>(bench.spec.pi_count());
      bench.num_outputs = static_cast<int>(bench.spec.po_count());
      bench.description = "manifest input";
      benches.push_back(std::move(bench));
    }
  }
  if (benches.empty()) throw std::runtime_error("batch: empty manifest");

  // Per-row status lines and heartbeat lines funnel through one sink, so
  // concurrent writers under --jobs N cannot interleave mid-line.
  obs::OutputSink sink;
  std::optional<obs::Heartbeat> heartbeat;
  if (obs_opt.heartbeat_seconds > 0.0)
    heartbeat.emplace(sink, obs_opt.heartbeat_seconds);
  start_tracing(obs_opt);
  Stopwatch sw;
  BatchRunner runner(bopt);
  std::size_t done = 0;
  runner.on_row = [&](const FlowRow& r, std::size_t) {
    // Rows settle in completion order under --jobs; the index printed is
    // a completion counter, not the manifest position. (The counter needs
    // no lock: on_row is already serialized by the runner's settle mutex.)
    sink.printf("[%zu/%zu] %-12s %-24s lits %zu vs %zu  power %.4f vs %.4f\n",
                ++done, benches.size(), r.circuit.c_str(),
                r.worst_status().to_string().c_str(), r.ours_lits,
                r.base_lits, r.ours_power, r.base_power);
  };
  BatchResult result;
  {
    RMSYN_SPAN("batch-run"); // root span: must close before the export
    result = runner.run(benches);
  }
  const double wall = sw.seconds();
  if (heartbeat.has_value()) heartbeat->stop();
  write_run_artifacts(obs_opt, "batch", bopt.jobs, result.rows,
                      bopt.jobs > 1 ? &result.sched : nullptr, wall);

  std::size_t ok = 0, degraded = 0, failed = 0, cancelled = 0;
  for (const auto& r : result.rows) {
    if (row_was_cancelled(r)) ++cancelled;
    else if (r.worst_status().is_failed()) ++failed;
    else if (r.worst_status().is_degraded()) ++degraded;
    else ++ok;
  }
  std::printf("batch: %zu circuits in %.2fs at --jobs %d: "
              "%zu ok, %zu degraded, %zu failed, %zu cancelled\n",
              result.rows.size(), result.seconds, bopt.jobs, ok, degraded,
              failed, cancelled);
  print_row_latency(result.rows);
  if (bopt.resume || !bopt.journal_path.empty() || bopt.retries > 0)
    std::printf("resilience: %zu rows replayed from journal, %zu retries "
                "used, %zu journal errors, %zu journal lines skipped\n",
                result.rows_replayed, result.retries_used,
                result.journal_errors, result.journal_skipped_lines);
  if (bopt.jobs > 1) {
    std::printf("%s", format_dd_kernel_summary(result.rows).c_str());
    std::printf("%s", format_sched_summary(result.sched).c_str());
  }
  return status_exit_code(result.worst);
}

int cmd_validate_report(const std::vector<std::string>& args) {
  if (args.size() != 2)
    throw std::runtime_error(
        "validate-report: need <report.json> <schema.json>");
  const obs::Json doc = obs::Json::parse(obs::read_file(args[0]));
  const obs::Json schema = obs::Json::parse(obs::read_file(args[1]));
  std::vector<std::string> errors;
  if (!obs::validate_json(doc, schema, &errors)) {
    for (const std::string& e : errors)
      std::fprintf(stderr, "validate-report: %s\n", e.c_str());
    return 1;
  }
  std::printf("report OK: schema_version %d, %zu rows, worst status %s\n",
              static_cast<int>(doc.get("schema_version").as_number()),
              doc.get("rows").size(),
              doc.get("worst_status").as_string().c_str());
  return 0;
}

int cmd_report_diff(const std::vector<std::string>& args) {
  obs::DiffOptions opt;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--ignore-timing") {
      opt.ignore_timing = true;
    } else if (args[i] == "--noise-pct" && i + 1 < args.size()) {
      opt.seconds_noise_frac =
          parse_seconds("--noise-pct", args[++i]) / 100.0;
    } else if (args[i] == "--noise-floor" && i + 1 < args.size()) {
      opt.seconds_noise_floor = parse_seconds("--noise-floor", args[++i]);
    } else if (!args[i].empty() && args[i][0] == '-') {
      throw std::runtime_error("report-diff: unknown option " + args[i]);
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() != 2)
    throw std::runtime_error(
        "report-diff: need <baseline.json> <candidate.json>");
  const obs::Json base = obs::Json::parse(obs::read_file(paths[0]));
  const obs::Json ours = obs::Json::parse(obs::read_file(paths[1]));
  const obs::DiffResult r = obs::diff_documents(base, ours, opt);
  std::printf("%s", obs::format_diff(r).c_str());
  return obs::diff_exit_code(r);
}

int cmd_list() {
  for (const auto& name : benchmark_names()) {
    const Benchmark b = make_benchmark(name);
    std::printf("%-10s %4d/%-4d %s%s%s\n", b.name.c_str(), b.num_inputs,
                b.num_outputs, b.arithmetic ? "[arith] " : "        ",
                b.exact ? "" : "[synthetic] ", b.description.c_str());
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s synth|baseline|map|verify|power|atpg|rewrite|"
                 "rewrite-dbgen|table2|batch|validate-report|report-diff|"
                 "list ...\n",
                 argv[0]);
    return ExitCode::Usage;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    // Global resilience switches, valid for every subcommand.
    for (std::size_t i = 0; i < args.size();) {
      if (args[i] == "--paranoid") {
        set_paranoid_checks(true);
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (args[i] == "--fault-plan" && i + 1 < args.size()) {
        install_fault_plan(FaultPlan::parse(args[i + 1]));
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      } else {
        ++i;
      }
    }
    if (cmd == "synth") return cmd_synth(args);
    if (cmd == "baseline") return cmd_baseline(args);
    if (cmd == "map") return cmd_map(args);
    if (cmd == "verify") return cmd_verify(args);
    if (cmd == "power") return cmd_power(args);
    if (cmd == "atpg") return cmd_atpg(args);
    if (cmd == "dump") return cmd_dump(args);
    if (cmd == "rewrite") return cmd_rewrite(args);
    if (cmd == "rewrite-dbgen") return cmd_rewrite_dbgen(args);
    if (cmd == "table2") return cmd_table2(args);
    if (cmd == "batch") return cmd_batch(args);
    if (cmd == "validate-report") return cmd_validate_report(args);
    if (cmd == "report-diff") return cmd_report_diff(args);
    if (cmd == "list") return cmd_list();
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
    return ExitCode::Usage;
  } catch (const RmsynError& e) {
    std::fprintf(stderr, "error [%s]: %s\n", to_string(e.code()), e.what());
    return exit_code_for_error(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for_error(classify_exception(e));
  }
}
