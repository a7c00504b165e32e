#include "sched/batch.hpp"

#include <mutex>
#include <optional>
#include <unordered_map>

#include "obs/trace.hpp"
#include "sched/journal.hpp"
#include "util/errors.hpp"
#include "util/progress.hpp"
#include "util/stopwatch.hpp"

namespace rmsyn {

namespace {

/// Deterministic exponential backoff in budget space: attempt k runs with
/// every finite per-flow limit scaled by 2^k. The fault plan is left alone:
/// its one-shot sites (alloc, arena) already fired, so a retry runs clean,
/// while a stage site is persistent and fails the retry too.
ResourceLimits escalated_limits(ResourceLimits l, int attempt) {
  const int shift = attempt < 20 ? attempt : 20; // cap the growth factor
  if (l.deadline_seconds > 0.0)
    l.deadline_seconds *= static_cast<double>(1u << shift);
  if (l.node_limit != 0) {
    const std::size_t grown = l.node_limit << shift;
    l.node_limit = grown >> shift == l.node_limit ? grown : ~std::size_t{0};
  }
  if (l.step_limit != 0) {
    const uint64_t grown = l.step_limit << shift;
    l.step_limit = grown >> shift == l.step_limit ? grown : ~uint64_t{0};
  }
  return l;
}

} // namespace

BatchRunner::BatchRunner(BatchOptions opt) : opt_(std::move(opt)) {}

FlowRow BatchRunner::cancelled_row(const Benchmark& bench) const {
  FlowRow row;
  row.circuit = bench.name;
  row.num_inputs = bench.num_inputs;
  row.num_outputs = bench.num_outputs;
  row.arithmetic = bench.arithmetic;
  row.exact_benchmark = bench.exact;
  row.ours_status =
      FlowStatus::failed("batch", "cancelled", ErrorCode::Cancelled);
  row.base_status =
      FlowStatus::failed("batch", "cancelled", ErrorCode::Cancelled);
  return row;
}

FlowRow BatchRunner::run_one(const Benchmark& bench, const FlowOptions& fopt,
                             std::size_t* retries_used) {
  if (budget_.cancelled() || budget_.past_deadline())
    return cancelled_row(bench);
  FlowRow row = run_flow(bench, fopt);
  int attempt = 0;
  while (attempt < opt_.retries && row.worst_status().is_failed() &&
         is_retryable(row.worst_status().code) && !budget_.cancelled() &&
         !budget_.past_deadline()) {
    // Transient-retryable failure: re-run with an escalated budget slice.
    // Cancelled/past-deadline batches never retry — the shared budget
    // would trip the fresh governor immediately anyway.
    ++attempt;
    FlowOptions retry_opt = fopt;
    retry_opt.limits = escalated_limits(fopt.limits, attempt);
    row = run_flow(bench, retry_opt);
  }
  row.attempts = attempt + 1;
  if (retries_used != nullptr) *retries_used += static_cast<std::size_t>(attempt);
  return row;
}

BatchResult BatchRunner::run(const std::vector<Benchmark>& benches) {
  RMSYN_SPAN("batch");
  if (ProgressBoard::active())
    ProgressBoard::instance().reset(benches.size());
  Stopwatch sw;
  BatchResult result;
  result.rows.resize(benches.size());

  if (opt_.batch_deadline_seconds > 0.0)
    budget_.set_deadline_in(opt_.batch_deadline_seconds);
  if (opt_.batch_allocation_budget > 0)
    budget_.set_allocation_pool(opt_.batch_allocation_budget);

  FlowOptions fopt = opt_.flow;
  fopt.limits.shared = &budget_;

  // Checkpoint/resume digests: computed once per run, before any flow
  // starts, so every worker journal-stamps rows identically.
  const bool journaling = !opt_.journal_path.empty();
  uint64_t options_digest = 0;
  std::vector<uint64_t> input_digests;
  if (journaling) {
    options_digest = journal_options_digest(opt_.flow);
    input_digests.resize(benches.size());
    for (std::size_t i = 0; i < benches.size(); ++i)
      input_digests[i] = journal_input_digest(benches[i]);
  }

  // Resume: splice matching completed journal rows, re-run the rest. Read
  // BEFORE opening the append handle so a same-path resume sees the prior
  // run's records, not an empty freshly-created file.
  std::vector<std::optional<FlowRow>> replayed(benches.size());
  if (journaling && opt_.resume) {
    JournalContents jc;
    try {
      jc = read_journal(opt_.journal_path);
    } catch (const RmsynError&) {
      // No journal yet: a resume of a run that never started is a fresh run.
    }
    result.journal_skipped_lines = jc.skipped_lines;
    std::unordered_map<std::string, const JournalRecord*> last;
    for (const JournalRecord& rec : jc.records) last[rec.circuit] = &rec;
    for (std::size_t i = 0; i < benches.size(); ++i) {
      const auto it = last.find(benches[i].name);
      if (it == last.end()) continue;
      const JournalRecord& rec = *it->second;
      // Replay only rows this manifest would reproduce: same input bytes,
      // same result-affecting options, and a completed (not failed /
      // cancelled) outcome. Everything else re-runs.
      if (rec.input_digest != input_digests[i] ||
          rec.options_digest != options_digest || rec.status == "failed")
        continue;
      replayed[i] = rec.row;
    }
  }

  BatchJournal journal;
  if (journaling && !journal.open(opt_.journal_path)) ++result.journal_errors;

  std::mutex settle_mu; // serializes on_row + worst aggregation + journal
  const auto settle = [&](std::size_t i, FlowRow row, bool journal_row) {
    std::lock_guard<std::mutex> lk(settle_mu);
    if (row.worst_status().is_failed() && !opt_.keep_going) budget_.cancel();
    result.rows[i] = std::move(row);
    if (journal_row && journal.is_open() &&
        !journal.append(benches[i].name, input_digests[i], options_digest,
                        result.rows[i]))
      ++result.journal_errors;
    if (ProgressBoard::active())
      ProgressBoard::instance().rows_done.fetch_add(
          1, std::memory_order_relaxed);
    if (on_row) on_row(result.rows[i], i);
  };

  if (opt_.jobs <= 1) {
    // Inline serial path: no pool — the reference execution that any jobs
    // value must reproduce bit-identically.
    for (std::size_t i = 0; i < benches.size(); ++i) {
      if (replayed[i].has_value()) {
        ++result.rows_replayed;
        settle(i, std::move(*replayed[i]), /*journal_row=*/false);
      } else {
        settle(i, run_one(benches[i], fopt, &result.retries_used),
               /*journal_row=*/true);
      }
    }
  } else {
    // jobs-1 worker threads; the calling thread helps, so total
    // parallelism is exactly `jobs`.
    ThreadPool pool(opt_.jobs - 1);
    if (opt_.inner_parallel) fopt.synth.rewrite.pool = &pool;
    std::mutex retries_mu;
    std::vector<Future<bool>> futures;
    futures.reserve(benches.size());
    for (std::size_t i = 0; i < benches.size(); ++i) {
      if (replayed[i].has_value()) {
        ++result.rows_replayed;
        settle(i, std::move(*replayed[i]), /*journal_row=*/false);
        continue;
      }
      futures.push_back(pool.submit(
          [this, &benches, &fopt, &settle, &retries_mu, &result, i] {
            std::size_t used = 0;
            FlowRow row = run_one(benches[i], fopt, &used);
            if (used != 0) {
              std::lock_guard<std::mutex> lk(retries_mu);
              result.retries_used += used;
            }
            settle(i, std::move(row), /*journal_row=*/true);
            return true;
          }));
    }
    for (auto& f : futures) pool.wait(f);
    result.sched = pool.stats();
  }

  for (const FlowRow& row : result.rows)
    result.worst = worse(result.worst, row.worst_status());
  result.seconds = sw.seconds();
  return result;
}

BatchResult run_flows(const std::vector<std::string>& names,
                      const FlowOptions& opt, int jobs, bool keep_going) {
  std::vector<Benchmark> benches;
  benches.reserve(names.size());
  for (const auto& n : names) benches.push_back(make_benchmark(n));
  BatchOptions bo;
  bo.flow = opt;
  bo.jobs = jobs;
  bo.keep_going = keep_going;
  BatchRunner runner(std::move(bo));
  return runner.run(benches);
}

} // namespace rmsyn
