// Deterministic fault-injection plan (DESIGN.md §7, §12).
//
// One seeded struct arms every injection site the resilience layer must
// survive, so CI can sweep them reproducibly through `--fault-plan`:
//
//   * IO faults — truncate a loaded input file at byte N and/or XOR one
//     byte, before parsing. Exercises the PLA/BLIF/AIGER hardening: a
//     damaged file must yield ErrorCode::ParseError (or, if the damage
//     happens to keep the file well-formed, a verified parse), never a
//     crash, hang, or out-of-bounds read.
//   * Arena fault — the Nth Network node creation throws
//     RmsynError(InjectedFault), modelling an allocation failure inside a
//     transform. Classified transient-retryable: `batch --retries` re-runs
//     the row (the site is one-shot per install).
//   * Journal fault — the Nth journal append reports failure, modelling a
//     full disk / fsync error mid-batch. The batch must keep running and
//     surface the count, never abort.
//   * Governor faults — the Nth governed DD-node allocation (one-shot) or
//     every governed entry of a named stage trips its governor, or every
//     computed-table lookup of a governed BDD manager misses. While one is
//     armed, ResourceLimits::unlimited() is false, so flows get a governor.
//
// Installation is process-wide (the CLI's --fault-plan flag; tests install
// and clear around each case). Counters are atomic: parallel batches hit
// the counted sites from several workers. When no plan is installed, every
// hook is one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace rmsyn {

struct FaultPlan {
  /// Seed: documents the sweep point and derives the corruption byte
  /// (splitmix64), so two sweeps with different seeds damage differently.
  uint64_t seed = 0;
  /// Keep only the first N bytes of every loaded input (1-based count;
  /// 0 = off). N larger than the file is a no-op.
  uint64_t io_truncate_at = 0;
  /// XOR byte N (1-based) of every loaded input with a seed-derived value
  /// (0 = off). N past the end is a no-op.
  uint64_t io_corrupt_at = 0;
  /// Throw RmsynError(InjectedFault) at the Nth Network node creation
  /// (1-based, counted process-wide from install; 0 = off). One-shot.
  uint64_t arena_fail_at_node = 0;
  /// Fail the Nth journal append (1-based, from install; 0 = off). One-shot.
  uint64_t journal_fail_at_record = 0;
  /// Trip the governor of the Nth governed DD-node allocation (1-based,
  /// counted process-wide from install; 0 = off). One-shot.
  uint64_t fail_at_allocation = 0;
  /// Trip the governor at every governed entry of this stage (empty = off).
  std::string trip_at_stage;
  /// Make every computed-table lookup of a governed BDD manager miss, as if
  /// the table permanently overflowed (stresses the uncached recursion).
  bool overflow_computed_table = false;

  bool any_io() const { return io_truncate_at != 0 || io_corrupt_at != 0; }
  /// True when a governor site (allocation, stage, computed table) is armed.
  bool arms_governor() const {
    return fail_at_allocation != 0 || !trip_at_stage.empty() ||
           overflow_computed_table;
  }

  /// Parses "key=value[,key=value...]" with keys seed, truncate, corrupt,
  /// arena, journal, alloc (numbers), stage (a stage name) and cache (0 or
  /// 1). Throws RmsynError(ParseError) on unknown keys or malformed values
  /// (this is CLI input).
  static FaultPlan parse(const std::string& spec);
};

/// Installs `p` process-wide and resets the counted sites.
void install_fault_plan(const FaultPlan& p);
/// Removes any installed plan (hooks become no-ops again).
void clear_fault_plan();
/// Snapshot of the installed plan (a default plan when none is installed).
FaultPlan active_fault_plan();

namespace faultdetail {
extern std::atomic<bool> g_active;
extern std::atomic<bool> g_cache_miss;

/// A one-shot site: hit() is true on the Nth hit only (1-based, counted
/// from install; N = 0 disarms the site and skips counting).
struct CountedSite {
  std::atomic<uint64_t> at{0};
  std::atomic<uint64_t> hits{0};
  void arm(uint64_t n) {
    hits.store(0, std::memory_order_relaxed);
    at.store(n, std::memory_order_relaxed);
  }
  bool hit() {
    const uint64_t n = at.load(std::memory_order_relaxed);
    return n != 0 && hits.fetch_add(1, std::memory_order_relaxed) + 1 == n;
  }
};
extern CountedSite g_arena, g_journal, g_alloc;

[[noreturn]] void throw_arena_fault();
} // namespace faultdetail

inline bool fault_plan_active() {
  return faultdetail::g_active.load(std::memory_order_relaxed);
}

/// Applies the installed plan's IO faults to a loaded input buffer
/// (identity when no plan / no IO faults are armed).
std::string apply_io_faults(std::string bytes);

/// Arena hook, called by Network node creation. Throws
/// RmsynError(InjectedFault) when the armed count is reached.
inline void fault_count_node() {
  if (fault_plan_active() && faultdetail::g_arena.hit())
    faultdetail::throw_arena_fault();
}

/// Journal hook: true when this append must fail.
inline bool fault_journal_append() {
  return fault_plan_active() && faultdetail::g_journal.hit();
}

/// Governed DD-allocation hook: true when this allocation must trip.
inline bool fault_allocation() {
  return fault_plan_active() && faultdetail::g_alloc.hit();
}

/// Governed stage-entry hook: true when entering `stage` must trip.
bool fault_stage(const char* stage);

/// Governed computed-table hook: true when every lookup must miss.
inline bool fault_cache_overflow() {
  return faultdetail::g_cache_miss.load(std::memory_order_relaxed);
}

/// RAII installer for tests: installs on construction, clears on scope exit.
class ScopedFaultPlan {
public:
  explicit ScopedFaultPlan(const FaultPlan& p) { install_fault_plan(p); }
  ~ScopedFaultPlan() { clear_fault_plan(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

} // namespace rmsyn
