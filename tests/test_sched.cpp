// Scheduler subsystem tests: work-stealing pool semantics, the batch
// runner's serial/parallel determinism contract, cancellation, and the
// benchmark registry the batch layer serves from.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <type_traits>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "flow/flow.hpp"
#include "network/transform.hpp"
#include "sched/batch.hpp"
#include "sched/pool.hpp"
#include "util/governor.hpp"

namespace rmsyn {
namespace {

TEST(ThreadPool, RunsEveryTaskOnceAcrossWorkerCounts) {
  for (const int workers : {0, 1, 3}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.worker_count(), workers);
    EXPECT_EQ(pool.slot_count(), workers + 1);
    std::atomic<int> ran{0};
    std::vector<Future<int>> futs;
    for (int i = 0; i < 500; ++i) {
      futs.push_back(pool.submit([i, &ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        return i * i;
      }));
    }
    long long sum = 0;
    for (auto& f : futs) sum += pool.wait(f);
    EXPECT_EQ(ran.load(), 500);
    long long expect = 0;
    for (int i = 0; i < 500; ++i) expect += static_cast<long long>(i) * i;
    EXPECT_EQ(sum, expect);
    const SchedStats s = pool.stats();
    EXPECT_EQ(s.workers, workers);
    EXPECT_EQ(s.per_worker.size(), static_cast<std::size_t>(workers) + 1);
    EXPECT_EQ(s.total_tasks(), 500u);
  }
}

TEST(ThreadPool, NestedFanOutDoesNotDeadlock) {
  // A row task fans subtasks onto the same pool and waits for them from
  // inside the pool, as a batch row's rewrite pass does — the helping wait
  // must keep the queue moving even with fewer workers than blocked
  // waiters.
  ThreadPool pool(2);
  std::vector<Future<int>> outer;
  for (int i = 0; i < 16; ++i) {
    outer.push_back(pool.submit([i, &pool] {
      std::vector<Future<int>> inner;
      for (int j = 0; j < 8; ++j)
        inner.push_back(pool.submit([i, j] { return i * 100 + j; }));
      int sum = 0;
      for (auto& f : inner) sum += pool.wait(f);
      return sum;
    }));
  }
  int total = 0;
  for (auto& f : outer) total += pool.wait(f);
  int expect = 0;
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 8; ++j) expect += i * 100 + j;
  EXPECT_EQ(total, expect);
}

TEST(ThreadPool, TaskExceptionsPropagateThroughWait) {
  ThreadPool pool(1);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(pool.wait(ok), 7);
  EXPECT_THROW(pool.wait(bad), std::runtime_error);
}

TEST(ThreadPool, StealStressKeepsEveryResult) {
  // Many tiny tasks submitted from a worker (so they land on one deque)
  // force the other workers to steal. Correctness, not schedule, is
  // asserted; the steal counters are only sanity-checked for consistency.
  ThreadPool pool(3);
  auto root = pool.submit([&pool] {
    std::vector<Future<int>> futs;
    for (int i = 0; i < 2000; ++i)
      futs.push_back(pool.submit([i] { return i; }));
    long long sum = 0;
    for (auto& f : futs) sum += pool.wait(f);
    return static_cast<int>(sum % 1000000007LL);
  });
  const int got = pool.wait(root);
  long long expect = 0;
  for (int i = 0; i < 2000; ++i) expect += i;
  EXPECT_EQ(got, static_cast<int>(expect % 1000000007LL));
  const SchedStats s = pool.stats();
  EXPECT_EQ(s.total_tasks(), 2001u);
  EXPECT_GE(s.total_steals(), s.total_tasks_stolen() > 0 ? 1u : 0u);
}

TEST(SchedStats, AccumulateMergesSlotsAcrossWorkerCounts) {
  // Slots merge by index: counters and seconds add, the queue-depth peak
  // takes the max, and the wider side's slots (its external slot last)
  // are kept.
  SchedStats a;
  a.workers = 1;
  a.per_worker.resize(2); // 1 worker + external slot
  a.per_worker[0].tasks_run = 3;
  a.per_worker[0].busy_seconds = 0.5;
  a.per_worker[0].peak_queue_depth = 4;
  a.per_worker[1].tasks_run = 2;
  a.per_worker[1].steal_attempts = 6;
  a.per_worker[1].idle_seconds = 0.25;

  SchedStats b;
  b.workers = 3;
  b.per_worker.resize(4); // 3 workers + external slot
  b.per_worker[0].tasks_run = 1;
  b.per_worker[0].steals = 2;
  b.per_worker[0].tasks_stolen = 5;
  b.per_worker[0].peak_queue_depth = 2;
  b.per_worker[1].busy_seconds = 1.0;
  b.per_worker[3].tasks_run = 7;
  b.per_worker[3].peak_queue_depth = 9;

  SchedStats sum = a;
  sum.accumulate(b);
  EXPECT_EQ(sum.workers, 3);
  ASSERT_EQ(sum.per_worker.size(), 4u);
  EXPECT_EQ(sum.per_worker[0].tasks_run, 4u);
  EXPECT_EQ(sum.per_worker[0].steals, 2u);
  EXPECT_EQ(sum.per_worker[0].tasks_stolen, 5u);
  EXPECT_EQ(sum.per_worker[0].peak_queue_depth, 4u);
  EXPECT_DOUBLE_EQ(sum.per_worker[0].busy_seconds, 0.5);
  EXPECT_EQ(sum.per_worker[1].tasks_run, 2u);
  EXPECT_EQ(sum.per_worker[1].steal_attempts, 6u);
  EXPECT_DOUBLE_EQ(sum.per_worker[1].busy_seconds, 1.0);
  EXPECT_DOUBLE_EQ(sum.per_worker[1].idle_seconds, 0.25);
  EXPECT_EQ(sum.per_worker[3].tasks_run, 7u);
  EXPECT_EQ(sum.per_worker[3].peak_queue_depth, 9u);
  EXPECT_EQ(sum.total_tasks(), 13u);
  EXPECT_EQ(sum.max_queue_depth(), 9u);

  // Narrower into wider: the wider side keeps its size and worker count.
  SchedStats wide = b;
  wide.accumulate(a);
  EXPECT_EQ(wide.workers, 3);
  ASSERT_EQ(wide.per_worker.size(), 4u);
  EXPECT_EQ(wide.per_worker[1].tasks_run, 2u);
  EXPECT_EQ(wide.per_worker[3].tasks_run, 7u);
  EXPECT_EQ(wide.total_tasks(), 13u);
}

TEST(BenchgenRegistry, EveryCircuitConstructsWithAdvertisedIo) {
  // The batch layer serves from this registry; a circuit that fails to
  // construct or lies about its interface would poison whole manifests.
  const auto& names = benchmark_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(has_benchmark(name));
    const Benchmark b = make_benchmark(name);
    EXPECT_EQ(b.name, name);
    EXPECT_EQ(static_cast<int>(b.spec.pi_count()), b.num_inputs);
    EXPECT_EQ(static_cast<int>(b.spec.po_count()), b.num_outputs);
    EXPECT_FALSE(b.description.empty());
  }
}

// Everything the table prints except wall-clock and DD counters, which are
// explicitly outside the determinism contract (DESIGN.md §8).
void expect_rows_identical(const FlowRow& a, const FlowRow& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.base_lits, b.base_lits);
  EXPECT_EQ(a.ours_lits, b.ours_lits);
  EXPECT_EQ(a.base_gates, b.base_gates);
  EXPECT_EQ(a.base_map_lits, b.base_map_lits);
  EXPECT_EQ(a.ours_gates, b.ours_gates);
  EXPECT_EQ(a.ours_map_lits, b.ours_map_lits);
  EXPECT_EQ(a.base_power, b.base_power);
  EXPECT_EQ(a.ours_power, b.ours_power);
  EXPECT_EQ(a.ours_status.to_string(), b.ours_status.to_string());
  EXPECT_EQ(a.base_status.to_string(), b.base_status.to_string());
}

TEST(BatchRunner, ParallelRowsBitIdenticalToSerialForEveryBenchmark) {
  const std::vector<std::string> names = benchmark_names();
  const FlowOptions fopt;
  const BatchResult serial = run_flows(names, fopt, /*jobs=*/1);
  const BatchResult parallel = run_flows(names, fopt, /*jobs=*/4);
  ASSERT_EQ(serial.rows.size(), names.size());
  ASSERT_EQ(parallel.rows.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    expect_rows_identical(serial.rows[i], parallel.rows[i]);
  }
  EXPECT_EQ(serial.worst.to_string(), parallel.worst.to_string());
  // The parallel run used the pool, one task per row: without the rewrite
  // pass nothing inside a flow fans out.
  EXPECT_EQ(parallel.sched.workers, 3);
  EXPECT_EQ(parallel.sched.total_tasks(), names.size());
}

TEST(BatchRunner, RewriteFanOutInRowsBitIdenticalToSerial) {
  // With run_rewrite, inner_parallel hands the pool to each row's rewrite
  // pass; these rows fan their candidate evaluation out onto it.
  const std::vector<std::string> names = {"my_adder", "mlp4", "addm4"};
  FlowOptions fopt;
  fopt.synth.run_rewrite = true;
  const BatchResult serial = run_flows(names, fopt, /*jobs=*/1);
  const BatchResult parallel = run_flows(names, fopt, /*jobs=*/4);
  ASSERT_EQ(serial.rows.size(), names.size());
  ASSERT_EQ(parallel.rows.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    expect_rows_identical(serial.rows[i], parallel.rows[i]);
    const rw::RewriteStats& a = serial.rows[i].rewrite;
    const rw::RewriteStats& b = parallel.rows[i].rewrite;
    EXPECT_GT(a.roots, 0u);
    rw::RewriteStats::fields([&](const char* field, auto member, StatKind kind) {
      if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
        if (kind == StatKind::Counter) {
          EXPECT_EQ(a.*member, b.*member) << field;
        }
      }
    });
  }
  // More tasks than rows: the rewrite chunks really ran on the pool.
  EXPECT_GT(parallel.sched.total_tasks(), names.size());
}

TEST(BatchRunner, CancellationKeepsCompletedRowsIntact) {
  const std::vector<std::string> names = {"majority", "f2", "z4ml", "rd53"};
  std::vector<Benchmark> benches;
  for (const auto& n : names) benches.push_back(make_benchmark(n));

  BatchOptions bopt; // jobs=1: rows settle in input order, so the
                     // cancellation point is deterministic
  BatchRunner runner(bopt);
  std::size_t settled = 0;
  runner.on_row = [&](const FlowRow&, std::size_t) {
    if (++settled == 2) runner.cancel();
  };
  const BatchResult got = runner.run(benches);
  ASSERT_EQ(got.rows.size(), 4u);

  // The two rows that settled before the cancel are real results,
  // identical to standalone runs; the rest never started.
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(names[i]);
    expect_rows_identical(got.rows[i], run_flow(names[i], bopt.flow));
  }
  for (std::size_t i = 2; i < 4; ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_TRUE(got.rows[i].ours_status.is_failed());
    EXPECT_EQ(got.rows[i].ours_status.stage, "batch");
    EXPECT_EQ(got.rows[i].ours_status.reason, "cancelled");
    EXPECT_EQ(got.rows[i].ours_lits, 0u);
    EXPECT_EQ(got.rows[i].circuit, names[i]);
  }
  EXPECT_TRUE(got.worst.is_failed());
}

TEST(BatchRunner, KeepGoingFalseCancelsAfterFirstFailure) {
  // An absurdly small node budget fails every circuit; without keep_going
  // the first failure must cancel the remainder rather than burn budget.
  BatchOptions bopt;
  bopt.keep_going = false;
  bopt.flow.limits.node_limit = 1;
  BatchRunner runner(bopt);
  std::vector<Benchmark> benches;
  for (const auto& n : {"majority", "f2", "z4ml"})
    benches.push_back(make_benchmark(n));
  const BatchResult got = runner.run(benches);
  ASSERT_EQ(got.rows.size(), 3u);
  EXPECT_TRUE(got.worst.is_failed());
  // Later rows were cancelled, not run: their stage is the batch marker.
  EXPECT_EQ(got.rows[2].ours_status.stage, "batch");
}

TEST(Governor, ConcurrentPollsTripExactlyOnceAndStay) {
  ResourceLimits limits;
  limits.step_limit = 10'000;
  ResourceGovernor gov(limits);
  std::atomic<int> false_returns{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 40'000; ++i)
        if (!gov.poll()) false_returns.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(gov.exhausted());
  EXPECT_GT(false_returns.load(), 0);
  EXPECT_EQ(gov.trip_reason(), "step budget exhausted");
  EXPECT_EQ(gov.trip_kind(), TripKind::StepLimit);
  // Tripped stays tripped from every thread's point of view.
  EXPECT_FALSE(gov.poll());
}

TEST(Governor, SharedBudgetCancelBroadcastsAcrossGovernors) {
  SharedBudget budget;
  ResourceLimits limits;
  limits.shared = &budget;
  ResourceGovernor a(limits), b(limits);
  EXPECT_FALSE(a.exhausted());
  budget.cancel();
  // The cancel is noticed on the next slow poll (every 256th fast poll).
  for (int i = 0; i < 600 && !a.exhausted(); ++i) a.poll();
  for (int i = 0; i < 600 && !b.exhausted(); ++i) b.poll();
  EXPECT_TRUE(a.exhausted());
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(a.trip_reason(), "batch cancelled");
  EXPECT_EQ(b.trip_reason(), "batch cancelled");
}

TEST(Governor, SharedAllocationPoolTripsWhenDry) {
  SharedBudget budget;
  budget.set_allocation_pool(2 * SharedBudget::kAllocationGrain);
  ResourceLimits limits;
  limits.shared = &budget;
  ResourceGovernor gov(limits);
  // Single-threaded, the pool grants exactly its size before tripping
  // (slices are carved whole, so no fractional grain is left behind).
  uint64_t granted = 0;
  while (gov.count_allocation()) {
    ++granted;
    ASSERT_LT(granted, 100'000u) << "pool never tripped";
  }
  EXPECT_EQ(granted,
            static_cast<uint64_t>(2 * SharedBudget::kAllocationGrain));
  EXPECT_TRUE(gov.exhausted());
  EXPECT_EQ(gov.trip_reason(), "shared allocation pool exhausted");
  // A batch-scoped budget is never re-armed: the ladder's fallback slice
  // must re-trip on the next allocation.
  gov.grant_fallback();
  EXPECT_FALSE(gov.count_allocation());
}

} // namespace
} // namespace rmsyn
