// rmsyn command-line driver: the paper's per-circuit script (FPRM flow,
// SIS-style baseline, mapping, power, verify), the Table-2 sweep, manifest
// batches and the run-report tools. Every flag is declared once, in
// kFlags: the one parser reads it and the usage text (run without
// arguments) is generated from it.
//
// <input> is a .blif/.pla/.aag/.aig file or a built-in benchmark name (see
// `rmsyn_cli list`); table2's circuit names and the batch manifest's lines
// ('#' comments and blank lines skipped) go through the same loader.
// --jobs N is N threads in total: N-1 pool workers plus the helping caller.
// README.md describes the budget, resilience, parallel and telemetry flags
// in its "Resource budgets", "Crash-safe batches", "Parallel batches" and
// "Telemetry" sections. Exit codes are stable (util/errors.hpp): 0 ok,
// 1 usage, 2 degraded, 3 transient failure, 4 fatal input, 5 invariant or
// verify.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
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

/// A malformed command line: main prints it with the command's usage and
/// exits 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- options -----------------------------------------------------------------

/// Everything a command line can set; each subcommand reads its part.
struct Options {
  std::vector<std::string> operands; ///< positional arguments, in order
  std::string out_path;              ///< -o
  std::string lib_path;              ///< --lib
  std::string trace_path;            ///< --trace: Chrome trace-event JSON
  std::string report_path;           ///< --report: machine-readable report
  std::string profile_path;          ///< --profile: folded-stack tree
  double heartbeat_seconds = 0.0;    ///< --heartbeat: progress-line period
  int jobs = 1;                      ///< --jobs: threads in total
  bool keep_going = false;           ///< table2; batch always keeps going
  bool drop_faults = true;           ///< atpg --no-drop clears it
  /// Flow options (synth switches, per-flow limits, mapping/power) and the
  /// batch-wide knobs (retries, journal, shared budgets).
  BatchOptions batch;
  rw::RewriteOptions rewrite; ///< the standalone rewrite command
  obs::DiffOptions diff;

  SynthOptions& synth() { return batch.flow.synth; }
  ResourceLimits& limits() { return batch.flow.limits; }
};

/// Parses a positive number; `want` describes one in the error message.
template <typename T> T parse_positive(const std::string& v, const char* want) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (ec != std::errc() || ptr != end || !(x > 0))
    throw UsageError("bad value '" + v + "' (want " + want + ")");
  return x;
}

double parse_seconds(const std::string& v) {
  return parse_positive<double>(v, "seconds > 0, e.g. 0.001");
}

template <typename T = std::size_t> T parse_count(const std::string& v) {
  return parse_positive<T>(v, "a positive integer");
}

int parse_jobs(const std::string& v) {
  const int n = parse_count<int>(v);
  if (n > 256) throw UsageError("at most 256 jobs");
  return n;
}

FactorMethod parse_method(const std::string& v) {
  if (v == "cubes") return FactorMethod::Cubes;
  if (v == "ofdd") return FactorMethod::Ofdd;
  if (v == "best") return FactorMethod::Best;
  throw UsageError("bad method " + v);
}

// One bit per subcommand, in kCommands order.
enum : unsigned {
  kSynth = 1u << 0, kBaseline = 1u << 1, kMap = 1u << 2, kVerify = 1u << 3,
  kPower = 1u << 4, kAtpg = 1u << 5, kDump = 1u << 6, kRewrite = 1u << 7,
  kDbgen = 1u << 8, kTable2 = 1u << 9, kBatch = 1u << 10,
  kValidate = 1u << 11, kDiff = 1u << 12, kList = 1u << 13,
  kAll = (1u << 14) - 1,
  kRuns = kTable2 | kBatch,
  kBudgeted = kSynth | kBaseline | kVerify | kRewrite | kRuns,
};

struct Flag {
  const char* name;
  const char* value; ///< usage placeholder; nullptr for a switch
  unsigned commands; ///< the subcommands that accept it
  void (*set)(Options& o, const std::string& value);
};

const Flag kFlags[] = {
    {"-o", "file", kSynth | kBaseline | kDump | kRewrite | kDbgen,
     [](auto& o, auto& v) { o.out_path = v; }},
    {"--method", "cubes|ofdd|best", kSynth,
     [](auto& o, auto& v) { o.synth().method = parse_method(v); }},
    {"--no-redundancy", nullptr, kSynth,
     [](auto& o, auto&) { o.synth().run_redundancy_removal = false; }},
    {"--no-resub", nullptr, kSynth,
     [](auto& o, auto&) { o.synth().run_resub = false; }},
    {"--rewrite", nullptr, kSynth | kRuns,
     [](auto& o, auto&) { o.synth().run_rewrite = true; }},
    {"--lib", "file.genlib", kMap, [](auto& o, auto& v) { o.lib_path = v; }},
    {"--jobs", "N", kAtpg | kRewrite | kRuns,
     [](auto& o, auto& v) { o.jobs = parse_jobs(v); }},
    {"--no-drop", nullptr, kAtpg,
     [](auto& o, auto&) { o.drop_faults = false; }},
    {"--passes", "N", kRewrite,
     [](auto& o, auto& v) { o.rewrite.max_passes = parse_count<int>(v); }},
    {"--cut-limit", "N", kRewrite,
     [](auto& o, auto& v) { o.rewrite.cut_limit = parse_count<int>(v); }},
    {"--db", "file", kRewrite, [](auto& o, auto& v) { o.rewrite.db_path = v; }},
    {"--keep-going", nullptr, kRuns,
     [](auto& o, auto&) { o.keep_going = true; }},
    {"--retries", "N", kRuns,
     [](auto& o, auto& v) { o.batch.retries = parse_count<int>(v); }},
    {"--journal", "out.jsonl", kBatch,
     [](auto& o, auto& v) { o.batch.journal_path = v; }},
    {"--resume", "journal.jsonl", kBatch,
     [](auto& o, auto& v) {
       o.batch.journal_path = v;
       o.batch.resume = true;
     }},
    {"--no-mapping", nullptr, kBatch,
     [](auto& o, auto&) { o.batch.flow.run_mapping = false; }},
    {"--no-power", nullptr, kBatch,
     [](auto& o, auto&) { o.batch.flow.run_power = false; }},
    {"--timeout", "sec", kBudgeted,
     [](auto& o, auto& v) { o.limits().deadline_seconds = parse_seconds(v); }},
    {"--node-limit", "n", kBudgeted,
     [](auto& o, auto& v) { o.limits().node_limit = parse_count(v); }},
    {"--step-limit", "n", kBudgeted,
     [](auto& o, auto& v) { o.limits().step_limit = parse_count(v); }},
    {"--batch-timeout", "sec", kBatch,
     [](auto& o, auto& v) {
       o.batch.batch_deadline_seconds = parse_seconds(v);
     }},
    {"--batch-node-limit", "n", kBatch,
     [](auto& o, auto& v) {
       o.batch.batch_allocation_budget = parse_count(v);
     }},
    {"--trace", "out.json", kSynth | kRuns,
     [](auto& o, auto& v) { o.trace_path = v; }},
    {"--report", "out.json", kRuns,
     [](auto& o, auto& v) { o.report_path = v; }},
    {"--profile", "out.folded", kRuns,
     [](auto& o, auto& v) { o.profile_path = v; }},
    {"--heartbeat", "sec", kRuns,
     [](auto& o, auto& v) { o.heartbeat_seconds = parse_seconds(v); }},
    {"--ignore-timing", nullptr, kDiff,
     [](auto& o, auto&) { o.diff.ignore_timing = true; }},
    {"--noise-pct", "P", kDiff,
     [](auto& o, auto& v) {
       o.diff.seconds_noise_frac = parse_seconds(v) / 100.0;
     }},
    {"--noise-floor", "sec", kDiff,
     [](auto& o, auto& v) { o.diff.seconds_noise_floor = parse_seconds(v); }},
    {"--paranoid", nullptr, kAll,
     [](auto&, auto&) { set_paranoid_checks(true); }},
    {"--fault-plan", "plan", kAll,
     [](auto&, auto& v) { install_fault_plan(FaultPlan::parse(v)); }},
};

// --- shared setup ------------------------------------------------------------

/// Reads a whole file, routing the bytes through the FaultPlan's IO
/// corruption/truncation points (a no-op unless --fault-plan armed them).
std::string load_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return apply_io_faults(ss.str());
}

/// Turns a benchmark name or a .blif/.pla/.aag/.aig path into a Benchmark.
Benchmark load_benchmark(const std::string& input) {
  if (has_benchmark(input)) return make_benchmark(input);
  Benchmark bench;
  bench.name = input;
  bench.description = "manifest input";
  if (input.ends_with(".blif")) {
    bench.spec = read_blif_string(load_file_bytes(input));
  } else if (input.ends_with(".pla")) {
    const PlaFile pla = read_pla_string(load_file_bytes(input));
    bench.spec = network_from_covers(pla.outputs, pla.num_inputs);
  } else if (input.ends_with(".aag") || input.ends_with(".aig")) {
    bench.spec = read_aiger_string(load_file_bytes(input));
  } else {
    throw std::runtime_error("unknown input '" + input +
                             "' (not a .blif/.pla/.aag/.aig file or "
                             "benchmark name)");
  }
  bench.num_inputs = static_cast<int>(bench.spec.pi_count());
  bench.num_outputs = static_cast<int>(bench.spec.po_count());
  return bench;
}

/// A governor from the limits, or none when they are unlimited.
std::unique_ptr<ResourceGovernor> make_governor(const Options& o) {
  const ResourceLimits& limits = o.batch.flow.limits;
  return limits.unlimited() ? nullptr
                            : std::make_unique<ResourceGovernor>(limits);
}

/// --jobs N is N threads: N-1 pool workers plus the helping caller.
std::unique_ptr<ThreadPool> make_pool(const Options& o) {
  return o.jobs > 1 ? std::make_unique<ThreadPool>(o.jobs - 1) : nullptr;
}

/// Arms the tracer and/or the profiler a run asked for.
void start_obs(const Options& o) {
  if (!o.trace_path.empty()) {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().enable();
  }
  if (!o.profile_path.empty()) {
    obs::Profiler::instance().reset();
    obs::Profiler::instance().enable();
  }
}

/// Writes the --trace/--profile artifacts after a run.
void finish_obs(const Options& o) {
  if (!o.trace_path.empty()) {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().write_chrome_trace(o.trace_path);
    std::printf("wrote trace %s\n", o.trace_path.c_str());
  }
  if (!o.profile_path.empty()) {
    obs::Profiler::instance().disable();
    obs::Profiler::instance().write_folded(o.profile_path);
    std::printf("wrote profile %s\n", o.profile_path.c_str());
  }
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

void write_output(const Network& net, const std::string& path,
                  const std::string& model) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  write_blif(out, decompose2(net), model);
  std::printf("wrote %s\n", path.c_str());
}

// --- single-input commands ---------------------------------------------------

int cmd_synth(const Options& o) {
  const std::string& input = o.operands[0];
  const auto gov = make_governor(o);
  SynthOptions opt = o.batch.flow.synth;
  opt.governor = gov.get();
  const Network spec = load_benchmark(input).spec;
  start_obs(o);
  SynthReport rep;
  Network result;
  {
    RMSYN_SPAN("synth");
    result = synthesize(spec, opt, &rep);
  }
  finish_obs(o);
  std::printf("synthesized %s: %s in %.3fs (status %s)\n", input.c_str(),
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
  write_output(result, o.out_path, "rmsyn_synth");
  return status_exit_code(rep.status);
}

int cmd_baseline(const Options& o) {
  const std::string& input = o.operands[0];
  const auto gov = make_governor(o);
  BaselineOptions opt = o.batch.flow.baseline;
  opt.governor = gov.get();
  const Network spec = load_benchmark(input).spec;
  BaselineReport rep;
  const Network result = baseline_synthesize(spec, opt, &rep);
  std::printf("baseline %s: %s in %.3fs (SOP lits %d -> %d, %d divisors "
              "extracted, status %s)\n",
              input.c_str(), to_string(rep.stats).c_str(), rep.seconds,
              rep.sop_lits_initial, rep.sop_lits_final, rep.nodes_extracted,
              rep.status.to_string().c_str());
  write_output(result, o.out_path, "rmsyn_baseline");
  return status_exit_code(rep.status);
}

int cmd_map(const Options& o) {
  const std::string& input = o.operands[0];
  CellLibrary custom;
  if (!o.lib_path.empty()) custom = parse_genlib(load_file_bytes(o.lib_path));
  const CellLibrary& lib = o.lib_path.empty() ? mcnc_library() : custom;
  const MapResult r = map_network(load_benchmark(input).spec, lib);
  std::printf("mapped %s: %zu cells, %zu literals, area %.1f\n",
              input.c_str(), r.gate_count, r.literal_count, r.area);
  // Cell histogram.
  std::map<std::string, int> hist;
  for (const auto& g : r.gates) ++hist[g.cell];
  for (const auto& [name, count] : hist)
    std::printf("  %-8s x%d\n", name.c_str(), count);
  return 0;
}

int cmd_verify(const Options& o) {
  const Network a = load_benchmark(o.operands[0]).spec;
  const Network b = load_benchmark(o.operands[1]).spec;
  const auto gov = make_governor(o);
  const auto r = check_equivalence(a, b, 0xC0FFEE, gov.get());
  if (!r.decided) std::printf("UNDECIDED: %s\n", r.reason.c_str());
  else if (r.equivalent) std::printf("EQUIVALENT\n");
  else std::printf("NOT EQUIVALENT: %s\n", r.reason.c_str());
  std::printf("output pairs proved: %zu by structure, %zu by BDD (of %zu)\n",
              r.proved_by_structure, r.proved_by_bdd, a.po_count());
  if (!r.decided) return ExitCode::BudgetDegraded;
  return r.equivalent ? ExitCode::Ok : ExitCode::InvariantOrVerify;
}

int cmd_power(const Options& o) {
  const PowerReport r = estimate_power(load_benchmark(o.operands[0]).spec);
  std::printf("power %s: total %.4f (switching sum %.4f over %zu nets, %s "
              "probabilities)\n",
              o.operands[0].c_str(), r.total, r.switching_sum, r.nets,
              r.exact ? "exact BDD" : "simulated");
  return 0;
}

int cmd_atpg(const Options& o) {
  const Network spec = load_benchmark(o.operands[0]).spec;
  SynthReport rep;
  const Network net = synthesize(spec, {}, &rep);
  const PatternSet tests = fprm_pattern_set(
      net.pi_count(), rep.forms, /*include_sa1=*/true, std::size_t{1} << 16);
  const auto pool = make_pool(o);
  SimStats stats;
  FaultSimOptions fo;
  fo.drop_faults = o.drop_faults;
  fo.stats = &stats;
  fo.pool = pool.get();
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

int cmd_dump(const Options& o) {
  const std::string& input = o.operands[0];
  const Network net = load_benchmark(input).spec;
  if (o.out_path.empty())
    std::printf("%s", write_blif_string(decompose2(net), input).c_str());
  else
    write_output(net, o.out_path, input);
  return 0;
}

int cmd_rewrite(const Options& o) {
  const std::string& input = o.operands[0];
  const Network spec = load_benchmark(input).spec;
  const auto gov = make_governor(o);
  const auto pool = make_pool(o);
  rw::RewriteOptions opt = o.rewrite;
  opt.governor = gov.get();
  opt.pool = pool.get();
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
  const auto check = check_equivalence(spec, net, 0xC0FFEE, gov.get());
  if (check.decided && !check.equivalent)
    throw RmsynError(ErrorCode::VerifyMismatch,
                     "rewrite: result not equivalent to input: " +
                         check.reason);
  obs::MetricsRegistry m;
  if (!st.empty()) stat_fields::absorb(m, "rewrite.", st);
  std::printf("%s", obs::format_metrics_summary(m).c_str());
  std::printf("rewrite %s: %s in %.3fs (equivalence %s)\n", input.c_str(),
              to_string(network_stats(net)).c_str(), seconds,
              check.decided ? "verified" : "undecided");
  write_output(net, o.out_path, "rmsyn_rewrite");
  const bool tripped = gov && gov->trip_kind() != TripKind::None;
  return tripped ? ExitCode::BudgetDegraded : ExitCode::Ok;
}

int cmd_rewrite_dbgen(const Options& o) {
  const std::string out_path =
      o.out_path.empty() ? "data/rewrite_db_k4.txt" : o.out_path;
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

// --- table2 and batch: one run path ------------------------------------------

/// A row the batch runner never started because the budget was cancelled
/// (keep_going=false after a failure, batch deadline, or explicit cancel).
bool row_was_cancelled(const FlowRow& r) {
  return r.ours_status.is_failed() && r.ours_status.stage == "batch";
}

/// Prints the p50/p99 row-latency line (the ROADMAP service-era SLO
/// numbers, from the flow.row_seconds histogram).
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

/// Writes the --report run report; `command` names the subcommand in it.
void write_report(const Options& o, const char* command,
                  const BatchResult& result, double wall_seconds) {
  if (o.report_path.empty()) return;
  obs::ReportBuilder rb(command, o.jobs);
  for (const FlowRow& r : result.rows) rb.add_row(flow_row_json(r));
  obs::MetricsRegistry m = collect_flow_metrics(result.rows);
  if (o.jobs > 1) m.absorb_sched(result.sched);
  m.set("os.peak_rss_mb", peak_rss_mb());
  rb.set_metrics(m);
  if (!o.trace_path.empty())
    rb.set_trace(obs::Tracer::instance().summary(), wall_seconds,
                 o.trace_path);
  if (!o.profile_path.empty())
    rb.set_profile(obs::Profiler::instance().merged(), o.profile_path);
  obs::write_json_file(o.report_path, rb.finish(wall_seconds));
  std::printf("wrote report %s\n", o.report_path.c_str());
}

/// What table2 and batch print around the shared run.
struct RunOutput {
  const char* command; ///< names the report and the trace's root span
  /// One line per settled row, through the sink the heartbeat shares (so
  /// concurrent writers cannot interleave mid-line); empty for none.
  std::function<void(obs::OutputSink&, const FlowRow&)> row;
  /// The command's own summary, printed ahead of the row-latency line; a
  /// value ends the command with that exit code instead.
  std::function<std::optional<int>(const BatchResult&)> summary;
  bool resilience_line = false; ///< retries/journal counters
  bool serial_kernel_summary = false; ///< DD-kernel line also at --jobs 1
};

/// The run path table2 and batch share: heartbeat, root span, BatchRunner,
/// artifacts, then the summaries.
int run_rows(const Options& o, BatchOptions bopt,
             const std::vector<Benchmark>& benches, const RunOutput& out) {
  bopt.jobs = o.jobs;
  obs::OutputSink sink;
  std::optional<obs::Heartbeat> heartbeat;
  if (o.heartbeat_seconds > 0.0) heartbeat.emplace(sink, o.heartbeat_seconds);
  start_obs(o);
  Stopwatch sw;
  BatchRunner runner(bopt);
  if (out.row)
    runner.on_row = [&](const FlowRow& r, std::size_t) { out.row(sink, r); };
  BatchResult result;
  {
    RMSYN_SPAN(out.command); // must close before the trace export
    result = runner.run(benches);
  }
  const double wall = sw.seconds();
  if (heartbeat.has_value()) heartbeat->stop();
  finish_obs(o);
  write_report(o, out.command, result, wall);

  if (const std::optional<int> code = out.summary(result)) return *code;
  print_row_latency(result.rows);
  if (out.resilience_line)
    std::printf("resilience: %zu rows replayed from journal, %zu retries "
                "used, %zu journal errors, %zu journal lines skipped\n",
                result.rows_replayed, result.retries_used,
                result.journal_errors, result.journal_skipped_lines);
  if (out.serial_kernel_summary || o.jobs > 1)
    std::printf("%s", format_dd_kernel_summary(result.rows).c_str());
  if (o.jobs > 1)
    std::printf("%s", format_sched_summary(result.sched).c_str());
  return status_exit_code(result.worst);
}

int cmd_table2(const Options& o) {
  const std::vector<std::string> names =
      o.operands.empty() ? benchmark_names() : o.operands;
  std::vector<Benchmark> benches;
  for (const auto& n : names) benches.push_back(load_benchmark(n));
  BatchOptions bopt = o.batch;
  bopt.keep_going = o.keep_going;

  const auto summary = [&](const BatchResult& result) -> std::optional<int> {
    if (!result.worst.is_failed() || o.keep_going) {
      std::printf("%s", format_table2(result.rows).c_str());
      return std::nullopt;
    }
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
    return ExitCode::TransientFailure;
  };
  return run_rows(o, bopt, benches,
                  {.command = "table2",
                   .row = nullptr,
                   .summary = summary,
                   .serial_kernel_summary = true});
}

int cmd_batch(const Options& o) {
  std::ifstream in(o.operands[0]);
  if (!in) throw std::runtime_error("cannot open manifest " + o.operands[0]);
  std::vector<Benchmark> benches;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t a = line.find_first_not_of(" \t\r");
    if (a == std::string::npos) continue;
    const std::size_t b = line.find_last_not_of(" \t\r");
    benches.push_back(load_benchmark(line.substr(a, b - a + 1)));
  }
  if (benches.empty()) throw std::runtime_error("batch: empty manifest");

  std::size_t done = 0;
  const auto row = [&](obs::OutputSink& sink, const FlowRow& r) {
    // Rows settle in completion order under --jobs; the index printed is
    // a completion counter, not the manifest position. (The counter needs
    // no lock: on_row is already serialized by the runner's settle mutex.)
    sink.printf("[%zu/%zu] %-12s %-24s lits %zu vs %zu  power %.4f vs %.4f\n",
                ++done, benches.size(), r.circuit.c_str(),
                r.worst_status().to_string().c_str(), r.ours_lits,
                r.base_lits, r.ours_power, r.base_power);
  };
  const auto summary = [&](const BatchResult& result) -> std::optional<int> {
    std::size_t ok = 0, degraded = 0, failed = 0, cancelled = 0;
    for (const auto& r : result.rows) {
      if (row_was_cancelled(r)) ++cancelled;
      else if (r.worst_status().is_failed()) ++failed;
      else if (r.worst_status().is_degraded()) ++degraded;
      else ++ok;
    }
    std::printf("batch: %zu circuits in %.2fs at --jobs %d: "
                "%zu ok, %zu degraded, %zu failed, %zu cancelled\n",
                result.rows.size(), result.seconds, o.jobs, ok, degraded,
                failed, cancelled);
    return std::nullopt;
  };
  return run_rows(o, o.batch, benches,
                  {.command = "batch",
                   .row = row,
                   .summary = summary,
                   .resilience_line = o.batch.resume ||
                                      !o.batch.journal_path.empty() ||
                                      o.batch.retries > 0});
}

// --- report tools ------------------------------------------------------------

int cmd_validate_report(const Options& o) {
  const obs::Json doc = obs::Json::parse(obs::read_file(o.operands[0]));
  const obs::Json schema = obs::Json::parse(obs::read_file(o.operands[1]));
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

int cmd_report_diff(const Options& o) {
  const obs::Json base = obs::Json::parse(obs::read_file(o.operands[0]));
  const obs::Json ours = obs::Json::parse(obs::read_file(o.operands[1]));
  const obs::DiffResult r = obs::diff_documents(base, ours, o.diff);
  std::printf("%s", obs::format_diff(r).c_str());
  return obs::diff_exit_code(r);
}

int cmd_list(const Options&) {
  for (const auto& name : benchmark_names()) {
    const Benchmark b = make_benchmark(name);
    std::printf("%-10s %4d/%-4d %s%s%s\n", b.name.c_str(), b.num_inputs,
                b.num_outputs, b.arithmetic ? "[arith] " : "        ",
                b.exact ? "" : "[synthetic] ", b.description.c_str());
  }
  return 0;
}

// --- command table, parser and usage -----------------------------------------

struct Command {
  const char* name;
  unsigned bit;
  const char* operands; ///< usage text for the positional arguments
  std::size_t min_operands, max_operands;
  int (*run)(const Options&);
};

constexpr std::size_t kMany = static_cast<std::size_t>(-1);

const Command kCommands[] = {
    {"synth", kSynth, "<input>", 1, 1, cmd_synth},
    {"baseline", kBaseline, "<input>", 1, 1, cmd_baseline},
    {"map", kMap, "<input>", 1, 1, cmd_map},
    {"verify", kVerify, "<input-a> <input-b>", 2, 2, cmd_verify},
    {"power", kPower, "<input>", 1, 1, cmd_power},
    {"atpg", kAtpg, "<input>", 1, 1, cmd_atpg},
    {"dump", kDump, "<input>", 1, 1, cmd_dump},
    {"rewrite", kRewrite, "<input>", 1, 1, cmd_rewrite},
    {"rewrite-dbgen", kDbgen, "", 0, 0, cmd_rewrite_dbgen},
    {"table2", kTable2, "[circuit ...]", 0, kMany, cmd_table2},
    {"batch", kBatch, "<manifest>", 1, 1, cmd_batch},
    {"validate-report", kValidate, "<report.json> <schema.json>", 2, 2,
     cmd_validate_report},
    {"report-diff", kDiff, "<baseline.json> <candidate.json>", 2, 2,
     cmd_report_diff},
    {"list", kList, "", 0, 0, cmd_list},
};

std::string flag_usage(const Flag& f) {
  const std::string value = f.value ? std::string(" ") + f.value : "";
  return std::string(" [") + f.name + value + "]";
}

/// Usage lines for the commands in `mask`, wrapped at 80 columns; the flags
/// every command takes are listed once at the end.
std::string usage(unsigned mask) {
  std::string text = "usage:\n";
  for (const Command& c : kCommands) {
    if ((c.bit & mask) == 0) continue;
    std::string line = std::string("  rmsyn_cli ") + c.name;
    if (*c.operands != '\0') line += std::string(" ") + c.operands;
    for (const Flag& f : kFlags) {
      if ((f.commands & c.bit) == 0 || f.commands == kAll) continue;
      const std::string word = flag_usage(f);
      if (line.size() + word.size() > 79) {
        text += line + "\n";
        line = "     ";
      }
      line += word;
    }
    text += line + "\n";
  }
  text += "every command also takes";
  for (const Flag& f : kFlags)
    if (f.commands == kAll) text += flag_usage(f);
  return text + "\n";
}

/// Parses the arguments after the command name: every flag must be in the
/// table and accepted by `c`, a valued flag needs its value, and the
/// operand count must fit `c`.
Options parse_args(const Command& c, const std::vector<std::string>& args) {
  Options o;
  const std::string cmd = c.name;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.size() < 2 || a[0] != '-') {
      o.operands.push_back(a);
      continue;
    }
    const auto f = std::find_if(std::begin(kFlags), std::end(kFlags),
                                [&](const Flag& f) { return a == f.name; });
    if (f == std::end(kFlags) || (f->commands & c.bit) == 0)
      throw UsageError(cmd + ": unknown option " + a);
    if (f->value != nullptr && i + 1 == args.size())
      throw UsageError(cmd + ": " + a + " needs a value");
    try {
      f->set(o, f->value != nullptr ? args[++i] : std::string());
    } catch (const UsageError& e) {
      throw UsageError(a + ": " + e.what());
    }
  }
  if (o.operands.size() > c.max_operands)
    throw UsageError(cmd + ": unexpected argument " +
                     o.operands[c.max_operands]);
  if (o.operands.size() < c.min_operands)
    throw UsageError(cmd + ": missing " + c.operands);
  return o;
}

} // namespace

int main(int argc, char** argv) {
  const std::string name = argc >= 2 ? argv[1] : "";
  const auto c = std::find_if(std::begin(kCommands), std::end(kCommands),
                              [&](const Command& c) { return name == c.name; });
  if (c == std::end(kCommands)) {
    if (argc >= 2) std::fprintf(stderr, "unknown command %s\n", name.c_str());
    std::fprintf(stderr, "%s", usage(kAll).c_str());
    return ExitCode::Usage;
  }
  try {
    const Options o =
        parse_args(*c, std::vector<std::string>(argv + 2, argv + argc));
    return c->run(o);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), usage(c->bit).c_str());
    return ExitCode::Usage;
  } catch (const RmsynError& e) {
    std::fprintf(stderr, "error [%s]: %s\n", to_string(e.code()), e.what());
    return exit_code_for_error(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for_error(classify_exception(e));
  }
}
