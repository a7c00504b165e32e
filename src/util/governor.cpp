#include "util/governor.hpp"

#include <utility>

#include "util/progress.hpp"

namespace rmsyn {

const char* to_string(TripKind k) {
  switch (k) {
    case TripKind::None: return "none";
    case TripKind::Deadline: return "deadline";
    case TripKind::NodeLimit: return "node-limit";
    case TripKind::StepLimit: return "step-limit";
    case TripKind::Cancelled: return "cancelled";
    case TripKind::FaultInjected: return "fault-injected";
  }
  return "?";
}

ErrorCode error_code_for(TripKind k) {
  switch (k) {
    case TripKind::None: return ErrorCode::None;
    case TripKind::Deadline: return ErrorCode::BudgetDeadline;
    case TripKind::NodeLimit: return ErrorCode::BudgetNodes;
    case TripKind::StepLimit: return ErrorCode::BudgetSteps;
    case TripKind::Cancelled: return ErrorCode::Cancelled;
    case TripKind::FaultInjected: return ErrorCode::InjectedFault;
  }
  return ErrorCode::Internal;
}

ResourceGovernor::ResourceGovernor(ResourceLimits limits)
    : limits_(std::move(limits)), slice_start_(Clock::now()) {}

bool ResourceGovernor::slow_poll() {
  if (cancel_requested_.load(std::memory_order_relaxed)) {
    trip(TripKind::Cancelled, "cancel requested");
    return false;
  }
  if (limits_.shared != nullptr) {
    if (limits_.shared->cancelled()) {
      trip(TripKind::Cancelled, "batch cancelled");
      return false;
    }
    if (limits_.shared->past_deadline()) {
      trip(TripKind::Deadline, "batch deadline exceeded");
      return false;
    }
  }
  if (limits_.step_limit != 0 &&
      steps_.load(std::memory_order_relaxed) -
              slice_step_base_.load(std::memory_order_relaxed) >=
          limits_.step_limit) {
    trip(TripKind::StepLimit, "step budget exhausted");
    return false;
  }
  if (limits_.deadline_seconds > 0.0) {
    Clock::time_point start;
    {
      std::lock_guard<std::mutex> lk(cold_mu_);
      start = slice_start_;
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= limits_.deadline_seconds) {
      trip(TripKind::Deadline, "deadline exceeded");
      return false;
    }
  }
  return true;
}

bool ResourceGovernor::note_nodes(std::size_t live) {
  // Heartbeat feed: one relaxed load when no heartbeat runs, one relaxed
  // store when one does (the board is advisory; see util/progress.hpp).
  if (ProgressBoard::active()) ProgressBoard::instance().note_live_nodes(live);
  if (tripped_.load(std::memory_order_relaxed)) return false;
  if (limits_.node_limit != 0 && live > limits_.node_limit) {
    trip(TripKind::NodeLimit, "live node limit exceeded");
    return false;
  }
  return true;
}

bool ResourceGovernor::count_allocation() {
  if (fault_allocation()) {
    trip(TripKind::FaultInjected, "fault: allocation budget");
    return false;
  }
  if (limits_.shared != nullptr && limits_.shared->allocation_pool_enabled()) {
    if (shared_slice_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      int64_t grain = 0;
      if (!limits_.shared->draw_allocations(&grain)) {
        trip(TripKind::NodeLimit, "shared allocation pool exhausted");
        return false;
      }
      shared_slice_.fetch_add(grain, std::memory_order_relaxed);
    }
  }
  return !tripped_.load(std::memory_order_relaxed);
}

const char* ResourceGovernor::enter_stage(const char* stage) {
  const char* outer = stage_.exchange(stage, std::memory_order_relaxed);
  if (fault_stage(stage))
    trip(TripKind::FaultInjected,
         "fault: forced deadline at stage '" + std::string(stage) + "'");
  return outer;
}

std::string ResourceGovernor::trip_stage() const {
  std::lock_guard<std::mutex> lk(cold_mu_);
  return first_trip_stage_;
}

std::string ResourceGovernor::trip_reason() const {
  std::lock_guard<std::mutex> lk(cold_mu_);
  return first_trip_reason_;
}

bool ResourceGovernor::grant_fallback() {
  if (!tripped_.load(std::memory_order_relaxed)) return true;
  if (fallbacks_ >= kMaxFallbacks) return false;
  ++fallbacks_;
  // Fresh slice: restart the clock and the step counter. A shared budget
  // is deliberately NOT re-armed — a cancelled or timed-out batch re-trips
  // at the next slow poll.
  {
    std::lock_guard<std::mutex> lk(cold_mu_);
    slice_start_ = Clock::now();
  }
  slice_step_base_.store(steps_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  tripped_.store(false, std::memory_order_relaxed);
  return true;
}

void ResourceGovernor::trip(TripKind kind, std::string reason) {
  if (tripped_.exchange(true, std::memory_order_relaxed)) return;
  // First tripper of this slice; record metadata only for the first trip
  // of the governor's lifetime (preserved across grant_fallback slices).
  if (first_trip_kind_.load(std::memory_order_acquire) != TripKind::None)
    return;
  std::lock_guard<std::mutex> lk(cold_mu_);
  first_trip_stage_ = stage_.load(std::memory_order_relaxed);
  first_trip_reason_ = std::move(reason);
  first_trip_kind_.store(kind, std::memory_order_release);
}

// --- FlowStatus -------------------------------------------------------------

FlowStatus FlowStatus::degraded(std::string stage, std::string reason,
                                ErrorCode code) {
  FlowStatus s;
  s.outcome = FlowOutcome::Degraded;
  s.stage = std::move(stage);
  s.reason = std::move(reason);
  s.code = code;
  return s;
}

FlowStatus FlowStatus::failed(std::string stage, std::string reason,
                              ErrorCode code) {
  FlowStatus s;
  s.outcome = FlowOutcome::Failed;
  s.stage = std::move(stage);
  s.reason = std::move(reason);
  s.code = code;
  return s;
}

std::string FlowStatus::to_string() const {
  switch (outcome) {
    case FlowOutcome::Ok: return "ok";
    case FlowOutcome::Degraded:
      return "degraded:" + (stage.empty() ? std::string("?") : stage);
    case FlowOutcome::Failed:
      return "failed:" + (reason.empty()
                              ? (stage.empty() ? std::string("?") : stage)
                              : reason);
  }
  return "?";
}

const FlowStatus& worse(const FlowStatus& a, const FlowStatus& b) {
  return b.severity() > a.severity() ? b : a;
}

} // namespace rmsyn
