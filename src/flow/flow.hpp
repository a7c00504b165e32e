// End-to-end experiment runner shared by the bench harnesses and examples:
// runs one Table-2 circuit through both flows (ours and the SIS-style
// baseline), technology-maps both onto the mcnc-flavoured library, and
// collects every column of the paper's Table 2.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "baseline/script.hpp"
#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "mapping/mapper.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "power/power.hpp"

namespace rmsyn {

struct FlowRow {
  std::string circuit;
  int num_inputs = 0;
  int num_outputs = 0;
  bool arithmetic = false;
  bool exact_benchmark = false;

  // Pre-mapping (Table 2 columns 3-4): 2-input AND/OR literals + seconds.
  std::size_t base_lits = 0;
  double base_seconds = 0.0;
  std::size_t ours_lits = 0;
  double ours_seconds = 0.0;

  // Post-mapping (columns 5-8).
  std::size_t base_gates = 0;
  std::size_t base_map_lits = 0;
  std::size_t ours_gates = 0;
  std::size_t ours_map_lits = 0;

  // Power (improve%power).
  double base_power = 0.0;
  double ours_power = 0.0;

  // End-to-end wall time of this row (both flows + mapping + power), the
  // unit of the flow.row_seconds latency histogram batch prints p50/p99
  // of. 0 for rows spliced from a pre-v3 resume journal.
  double row_seconds = 0.0;

  // DD-kernel observability for the FPRM flow (accumulated over every
  // manager synthesize() created for this circuit).
  BddStats bdd;

  // Incremental-simulation counters (sim/sim.hpp): the FPRM flow's resub
  // prefilters + redundancy resims, plus both power estimates' sampled
  // fallbacks.
  SimStats sim;

  // Cut-rewriting post-pass counters (all-zero unless the FPRM flow ran
  // with synth.run_rewrite).
  rw::RewriteStats rewrite;

  // Per-stage wall clock, merged across both flows plus mapping and power
  // (stage names match the trace spans and the governor's stage).
  StageBreakdown stages;
  // Cooperative governor polls consumed by each flow (0 = ungoverned).
  uint64_t ours_polls = 0;
  uint64_t base_polls = 0;
  // Degradation-ladder descents the FPRM flow consumed (0 = full flow).
  std::size_t ladder_descents = 0;
  // Attempts the batch runner spent on this row (1 = first try succeeded;
  // >1 = transient-retryable failures were retried with escalated budgets).
  int attempts = 1;

  // Per-flow outcome. A failed flow keeps its columns at zero (or, for the
  // FPRM flow, mirrors the baseline columns when the baseline survived —
  // the last rung of the degradation ladder ships the baseline result).
  FlowStatus ours_status;
  FlowStatus base_status;
  const FlowStatus& worst_status() const {
    return worse(ours_status, base_status);
  }

  double improve_lits_pct() const {
    return base_map_lits == 0
               ? 0.0
               : 100.0 * (1.0 - static_cast<double>(ours_map_lits) /
                                    static_cast<double>(base_map_lits));
  }
  double improve_power_pct() const {
    return base_power == 0.0 ? 0.0
                             : 100.0 * (1.0 - ours_power / base_power);
  }
};

struct FlowOptions {
  SynthOptions synth;
  BaselineOptions baseline;
  bool run_mapping = true;
  bool run_power = true;
  /// Power-estimator settings. The simulation seed actually used for a
  /// circuit is power.sim_seed XOR hash(circuit name), so the power columns
  /// depend only on the circuit, never on which worker ran it or in what
  /// order — a batch at --jobs N reproduces the serial table bit-for-bit.
  PowerOptions power;
  /// Resource budget, applied to each flow with its own fresh governor so
  /// one flow's exhaustion cannot starve the other. Ignored for a flow
  /// whose options already carry an explicit governor.
  ResourceLimits limits;
};

/// Runs one circuit through both flows. An internal verification failure
/// (or any other exception) in one flow is captured into that flow's
/// FlowStatus instead of propagating, so the surviving flow's columns are
/// kept. run_flow itself only throws for spec-construction errors.
FlowRow run_flow(const Benchmark& bench, const FlowOptions& opt = {});
FlowRow run_flow(const std::string& circuit, const FlowOptions& opt = {});

/// Pretty-prints rows in the paper's Table-2 layout, with Total-arith and
/// Total-all summary rows (sums for counts/time, averages for the
/// improvement columns, as in the paper).
std::string format_table2(const std::vector<FlowRow>& rows);

/// One-line DD-kernel summary over a set of rows: computed-table hit rate,
/// peak live nodes, GC and reorder activity. Appended by the bench
/// harnesses below their tables. (A thin wrapper over the obs metrics
/// registry: absorbs the accumulated BddStats and renders the dd.* group
/// through obs::format_metrics_summary.)
std::string format_dd_kernel_summary(const std::vector<FlowRow>& rows);

/// Serializes one row for the machine-readable run report (obs/report.hpp):
/// every Table-2 column, both FlowStatus values (plus the worst), governor
/// poll counts, and the per-stage breakdown. Key order is schema-stable —
/// data/report_schema.json is the contract.
obs::Json flow_row_json(const FlowRow& row);

/// Inverse of flow_row_json for the checkpoint journal (sched/journal.hpp):
/// rebuilds a FlowRow from a journal record so `batch --resume` can splice
/// completed rows into the report without re-running them. Telemetry that
/// the row JSON does not carry (BddStats/SimStats counters) stays
/// default-initialized. Throws RmsynError(ParseError) on a malformed value.
FlowRow flow_row_from_json(const obs::Json& j);

/// Aggregates a run's rows into a metrics registry: dd.* from the
/// accumulated BddStats, sim.* and rewrite.* where a row ran them, and the
/// flow.* outcome/poll/descent counters and row-latency histogram. Stage
/// seconds stay in each row's `stages` (StageBreakdown).
obs::MetricsRegistry collect_flow_metrics(const std::vector<FlowRow>& rows);

} // namespace rmsyn
