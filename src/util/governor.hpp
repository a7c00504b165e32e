// Cooperative resource governor for the synthesis flow.
//
// The paper's flow is worst-case exponential at three points — ROBDD
// construction, the OFDD polarity search, and FPRM cube enumeration — so
// every long-running loop in the stack polls a shared ResourceGovernor and
// unwinds with a *status*, never an exception crossing a module boundary.
// The DD kernel signals exhaustion by returning BddManager::kInvalid from
// its recursive operations; higher layers translate that into a
// degradation-ladder step (see core/synth.cpp) and ultimately into the
// FlowStatus carried by SynthReport/FlowRow.
//
// Budgets:
//  * wall-clock deadline (checked every kCheckInterval polls to keep the
//    hot-path cost to a counter increment and a mask),
//  * peak live DD nodes (note_nodes(), called by BddManager::mk),
//  * a step budget (every poll is one step; deterministic, used by tests
//    and the fuzzer),
//  * an external cancel() flag (thread-safe; e.g. a signal handler),
//  * an optional SharedBudget — batch-wide cancellation, an absolute
//    wall-clock deadline, and a global DD-allocation pool that every
//    governor in the batch draws slices from (see src/sched/batch.hpp).
//
// Thread safety. One governor may be polled concurrently from several
// worker threads (the rewrite pass's parallel candidate evaluation polls
// the flow's governor from every chunk task). The hot path — poll(),
// note_nodes(), count_allocation(), exhausted(), cancel() — is lock-free:
// plain relaxed atomics, no mutex; so is the current stage, one pointer
// that obs::ScopedStage saves and restores. The cold paths (trip
// bookkeeping, grant_fallback) serialize on a small mutex. Trip metadata
// (trip_kind/stage/reason) is written once by the winning tripper; read it
// after the parallel region has joined (the flow thread does). Injected
// faults come from the process-wide FaultPlan (util/faultplan.hpp).
//
// Degradation ladder support: after a trip, grant_fallback() re-arms a
// fresh budget slice so the next (cheaper) rung gets a real chance instead
// of inheriting an already-dead budget. The first trip's kind/stage/reason
// are preserved for reporting. A SharedBudget is batch-scoped and never
// re-armed: a cancelled or out-of-deadline batch re-trips on the next
// slow poll regardless of fallback slices.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/errors.hpp"
#include "util/faultplan.hpp"

namespace rmsyn {

/// Batch-wide budget shared by every governor of a parallel batch: a
/// cancellation flag, an absolute deadline, and a global pool of DD-node
/// allocations that per-flow governors carve local slices from (one atomic
/// fetch per kAllocationGrain allocations, so the hot path stays a local
/// counter decrement). All members are safe to touch from any thread.
class SharedBudget {
public:
  SharedBudget() = default;
  SharedBudget(const SharedBudget&) = delete;
  SharedBudget& operator=(const SharedBudget&) = delete;

  /// Broadcast cancellation: every attached governor trips at its next
  /// slow poll.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Absolute wall-clock deadline `seconds` from now for the whole batch.
  void set_deadline_in(double seconds) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
    has_deadline_.store(true, std::memory_order_release);
  }
  bool past_deadline() const {
    return has_deadline_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() >= deadline_;
  }

  /// Arms the global allocation pool: at most `total` DD-node allocations
  /// across every governor sharing this budget.
  void set_allocation_pool(uint64_t total) {
    pool_.store(static_cast<int64_t>(total), std::memory_order_relaxed);
    pool_enabled_.store(true, std::memory_order_release);
  }
  bool allocation_pool_enabled() const {
    return pool_enabled_.load(std::memory_order_acquire);
  }
  /// Carves one grain from the pool; false when the pool is dry.
  bool draw_allocations(int64_t* grain_out) {
    const int64_t got =
        pool_.fetch_sub(kAllocationGrain, std::memory_order_relaxed);
    if (got <= 0) return false;
    *grain_out = got < kAllocationGrain ? got : kAllocationGrain;
    return true;
  }
  /// Allocations still in the pool (clamped at 0; racy, for reporting).
  uint64_t allocations_remaining() const {
    const int64_t p = pool_.load(std::memory_order_relaxed);
    return p > 0 ? static_cast<uint64_t>(p) : 0;
  }

  static constexpr int64_t kAllocationGrain = 4096;

private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<bool> pool_enabled_{false};
  std::atomic<int64_t> pool_{0};
  std::chrono::steady_clock::time_point deadline_{};
};

struct ResourceLimits {
  double deadline_seconds = 0.0; ///< wall clock per budget slice; 0 = off
  std::size_t node_limit = 0;    ///< peak live DD nodes; 0 = off
  uint64_t step_limit = 0;       ///< cooperative polls per slice; 0 = off
  /// Batch-wide budget this governor also answers to (not owned; must
  /// outlive the governor). Null = standalone.
  SharedBudget* shared = nullptr;

  /// True when no budget is set and the installed fault plan arms no
  /// governor site: a flow then runs without a governor.
  bool unlimited() const {
    return deadline_seconds <= 0.0 && node_limit == 0 && step_limit == 0 &&
           shared == nullptr && !active_fault_plan().arms_governor();
  }
};

enum class TripKind : uint8_t {
  None,
  Deadline,
  NodeLimit,
  StepLimit,
  Cancelled,
  FaultInjected,
};

const char* to_string(TripKind k);

/// Taxonomy classification of a trip (util/errors.hpp): every TripKind is
/// transient-retryable — a bigger budget slice or a fault-free re-run can
/// succeed.
ErrorCode error_code_for(TripKind k);

class ResourceGovernor {
public:
  explicit ResourceGovernor(ResourceLimits limits = {});

  /// One cooperative step. Returns true while budget remains; once it
  /// returns false every subsequent call returns false until
  /// grant_fallback() re-arms the budget. The wall clock is consulted only
  /// every kCheckInterval polls; a trip from any other source (node limit,
  /// allocation fault, cancel) is visible on the very next poll.
  /// Safe to call concurrently from multiple worker threads.
  bool poll() {
    if (tripped_.load(std::memory_order_relaxed)) return false;
    const uint64_t s = steps_.fetch_add(1, std::memory_order_relaxed) + 1;
    if ((s & (kCheckInterval - 1)) != 0) return true;
    return slow_poll();
  }

  /// True once any budget has tripped (does not consume a step).
  bool exhausted() const { return tripped_.load(std::memory_order_relaxed); }

  /// Thread-safe external cancellation; observed at the next poll.
  void cancel() { cancel_requested_.store(true, std::memory_order_relaxed); }

  /// Peak-live-node check; called by the DD kernel after each allocation.
  /// Returns false (and trips) when `live` exceeds the node limit.
  bool note_nodes(std::size_t live);

  /// Counts one DD-node allocation against the fault plan's allocation
  /// site and the shared allocation pool. Returns false (and trips) when
  /// either fires.
  bool count_allocation();

  // --- stage attribution -------------------------------------------------
  /// Makes `stage` (a string literal) the current stage and returns the
  /// stage it replaces, which obs::ScopedStage restores on exit. Trips when
  /// the fault plan arms `stage`.
  const char* enter_stage(const char* stage);
  void restore_stage(const char* outer) {
    stage_.store(outer, std::memory_order_relaxed);
  }
  /// Innermost active stage name ("" when outside any stage).
  std::string current_stage() const {
    return stage_.load(std::memory_order_relaxed);
  }

  // --- trip reporting -----------------------------------------------------
  /// Kind/stage/reason of the FIRST trip; preserved across grant_fallback().
  /// Stage/reason strings are returned by value (they are written under the
  /// cold-path mutex by whichever thread wins the trip race).
  TripKind trip_kind() const {
    return first_trip_kind_.load(std::memory_order_acquire);
  }
  std::string trip_stage() const;
  std::string trip_reason() const;

  // --- degradation ladder ------------------------------------------------
  /// Re-arms a fresh budget slice for the next ladder rung. Returns false
  /// once kMaxFallbacks slices have been consumed (the ladder must stop).
  /// A no-op (returning true) when nothing has tripped yet. Shared-budget
  /// exhaustion is not re-armed: a dead batch re-trips immediately.
  bool grant_fallback();
  int fallbacks_granted() const { return fallbacks_; }

  uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }
  const ResourceLimits& limits() const { return limits_; }
  SharedBudget* shared_budget() const { return limits_.shared; }

  static constexpr uint64_t kCheckInterval = 256; // must be a power of two
  static constexpr int kMaxFallbacks = 8;

private:
  bool slow_poll();
  void trip(TripKind kind, std::string reason);

  using Clock = std::chrono::steady_clock;

  ResourceLimits limits_;
  Clock::time_point slice_start_;
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> slice_step_base_{0}; ///< steps_ when slice started
  /// Allocations left in the locally carved shared-pool slice. May go
  /// slightly negative under contention before the next carve; the budget
  /// is approximate by design.
  std::atomic<int64_t> shared_slice_{0};
  int fallbacks_ = 0;
  std::atomic<bool> tripped_{false};
  std::atomic<bool> cancel_requested_{false};
  std::atomic<TripKind> first_trip_kind_{TripKind::None};
  std::atomic<const char*> stage_{""};
  /// Guards the cold-path state: trip strings, slice clock.
  mutable std::mutex cold_mu_;
  std::string first_trip_stage_;
  std::string first_trip_reason_;
};

// --- flow status -----------------------------------------------------------

enum class FlowOutcome : uint8_t { Ok = 0, Degraded = 1, Failed = 2 };

/// Outcome classification carried by SynthReport/BaselineReport/FlowRow.
/// Renders as "ok", "degraded:<stage>", or "failed:<reason>". `code` is the
/// machine-readable taxonomy entry (util/errors.hpp) the retry machinery
/// and the CLI exit codes key on.
struct FlowStatus {
  FlowOutcome outcome = FlowOutcome::Ok;
  std::string stage;  ///< where the budget died (empty when ok)
  std::string reason; ///< trip/error detail (empty when ok)
  ErrorCode code = ErrorCode::None; ///< taxonomy classification

  static FlowStatus ok() { return {}; }
  static FlowStatus degraded(std::string stage, std::string reason = "",
                             ErrorCode code = ErrorCode::None);
  static FlowStatus failed(std::string stage, std::string reason,
                           ErrorCode code = ErrorCode::Internal);

  bool is_ok() const { return outcome == FlowOutcome::Ok; }
  bool is_degraded() const { return outcome == FlowOutcome::Degraded; }
  bool is_failed() const { return outcome == FlowOutcome::Failed; }
  /// ok < degraded < failed; used for worst-status exit codes.
  int severity() const { return static_cast<int>(outcome); }

  std::string to_string() const;
};

/// The more severe of the two statuses.
const FlowStatus& worse(const FlowStatus& a, const FlowStatus& b);

} // namespace rmsyn
