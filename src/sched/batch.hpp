// Batch serving layer: runs many independent synthesis flows over one
// work-stealing pool. Rows are the one level of parallelism: each flow runs
// serially on the worker that picked it up. The only in-flow user of the
// pool is the optional rewrite post-pass (rewrite/rewrite.hpp), whose
// candidate evaluation fans out when inner_parallel is set.
//
// Determinism contract (DESIGN.md §8): with an untripped budget, the rows
// returned by run() are bit-identical for every jobs value — each flow owns
// its DD managers, its governor slice, and its power-estimator RNG seed
// (derived from the circuit name, not from scheduling order), and every
// parallel reduction inside the flow is ordered canonically. Wall-clock
// columns (seconds) and DD/scheduler counters are the only fields that may
// differ between runs.
//
// Budget sharing: every per-flow governor is attached to one SharedBudget,
// so cancel() (or a failed row under keep_going=false), the batch deadline,
// and the batch-wide DD-allocation pool broadcast to all workers; flows
// already running degrade through their ladder, flows not yet started
// return immediately as "failed:cancelled" rows with their columns zeroed.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "flow/flow.hpp"
#include "sched/pool.hpp"
#include "util/governor.hpp"

namespace rmsyn {

struct BatchOptions {
  /// Per-flow options; limits apply per flow (fresh governor each), as in
  /// serial table2. The runner injects the shared budget and, when
  /// inner_parallel is set, the pool for the rewrite post-pass.
  FlowOptions flow;
  /// Total parallelism (worker threads + the calling thread, which helps).
  /// <= 1 runs inline on the calling thread with no pool — the exact
  /// serial code path.
  int jobs = 1;
  /// false: the first failed row cancels every not-yet-finished row.
  bool keep_going = true;
  /// Hand the pool to the flow's rewrite post-pass (flow.synth.run_rewrite),
  /// whose candidate evaluation then fans out inside the row. Without
  /// run_rewrite the flag has no effect: one pool task per row.
  bool inner_parallel = true;
  /// Wall-clock budget for the WHOLE batch (0 = off); broadcast through
  /// the shared budget, unlike flow.limits.deadline_seconds which is
  /// per-flow slice.
  double batch_deadline_seconds = 0.0;
  /// DD-node allocation budget for the WHOLE batch (0 = off); workers
  /// carve SharedBudget::kAllocationGrain-sized slices from it.
  uint64_t batch_allocation_budget = 0;
  /// Extra attempts for rows that fail with a transient-retryable code
  /// (util/errors.hpp). Each retry re-runs the flow with the per-flow
  /// budget limits escalated x2 per attempt (deterministic exponential
  /// backoff in budget space, not wall-clock sleeping). Rows whose first
  /// attempt succeeds are bit-identical to a --retries 0 run.
  int retries = 0;
  /// Append one fsync'd JSONL checkpoint record per settled row (see
  /// sched/journal.hpp). Empty = journaling off. Journal write failures
  /// never abort the batch: journaling is disabled and counted.
  std::string journal_path;
  /// Read journal_path before running and splice every matching completed
  /// (ok/degraded) record into the result without re-running it; failed,
  /// cancelled, digest-mismatched and missing rows are re-run (and
  /// re-journaled). A missing journal file is a fresh run, not an error.
  bool resume = false;
};

struct BatchResult {
  std::vector<FlowRow> rows; ///< same order as the input benchmarks
  SchedStats sched;          ///< empty (workers=0) when jobs <= 1
  FlowStatus worst;          ///< most severe worst_status() over the rows
  double seconds = 0.0;      ///< wall clock for the whole batch
  std::size_t rows_replayed = 0;  ///< rows spliced from the resume journal
  std::size_t retries_used = 0;   ///< total extra attempts across all rows
  std::size_t journal_errors = 0; ///< failed journal appends (then disabled)
  std::size_t journal_skipped_lines = 0; ///< torn/corrupt lines on resume
};

class BatchRunner {
public:
  explicit BatchRunner(BatchOptions opt = {});

  /// Runs every benchmark through run_flow. Blocks until all rows are
  /// settled (completed or cancelled). Reentrant per runner: one run() at
  /// a time.
  BatchResult run(const std::vector<Benchmark>& benches);

  /// Thread-safe; also callable from on_row. Not-yet-started rows return
  /// as failed:cancelled, running flows trip their governors cooperatively.
  void cancel() { budget_.cancel(); }

  /// Invoked (serialized) as each row settles, with the row and its input
  /// index — batch progress reporting hooks into this.
  std::function<void(const FlowRow&, std::size_t)> on_row;

private:
  FlowRow run_one(const Benchmark& bench, const FlowOptions& fopt,
                  std::size_t* retries_used);
  FlowRow cancelled_row(const Benchmark& bench) const;

  BatchOptions opt_;
  SharedBudget budget_;
};

/// Convenience wrapper matching the CLI: builds the named benchmarks and
/// runs them at the given parallelism.
BatchResult run_flows(const std::vector<std::string>& names,
                      const FlowOptions& opt, int jobs,
                      bool keep_going = true);

} // namespace rmsyn
