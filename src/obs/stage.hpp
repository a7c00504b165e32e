// Per-stage run-time accounting — the instrumentation behind the paper's
// Table-2 style "where did the seconds go" columns.
//
// StageBreakdown is a small ordered multiset of (stage name, seconds,
// calls) carried by SynthReport / BaselineReport / FlowRow: every report a
// flow produces now says how long each stage (spec-bdd, polarity-search,
// ofdd-build, fprm-extract, factor, resub, redundancy, verify, baseline-*,
// mapping, power) actually took, and the JSON run report serializes it per
// circuit so CI and benches can diff run-time *shape*, not just totals.
//
// ScopedStage is the one RAII marker the flow layers use. It fuses the
// three per-stage concerns that previously needed separate scopes:
//   1. the governor's current stage (trip attribution and the fault plan's
//      stage site): saved on entry, restored on exit, null-governor safe;
//   2. a tracer span (obs/trace.hpp) under the same name;
//   3. wall-clock accumulation into the owning report's StageBreakdown,
//      plus a ProgressBoard update for the heartbeat when one is running.
// The clock is read once on entry and once on exit, and that one pair
// times both the span and the breakdown entry, so a traced stage's span
// duration is exactly its breakdown seconds. The breakdown is the one
// per-row stage table (the metrics registry keeps no copy). Stage scopes
// sit at per-output granularity (hundreds per circuit), so the always-on
// cost — two clock reads and a vector upsert — is noise.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "util/governor.hpp"

namespace rmsyn {

/// Ordered per-stage wall-clock accounting. Entries appear in first-use
/// order, which is deterministic for a given flow (execution order), so
/// serialized breakdowns are diffable across runs.
struct StageBreakdown {
  struct Entry {
    std::string name;
    double seconds = 0.0;
    uint64_t calls = 0;
  };
  std::vector<Entry> entries;

  /// Adds `seconds` (and `calls`) to `name`, creating the entry on first use.
  void add(std::string_view name, double seconds, uint64_t calls = 1);
  void accumulate(const StageBreakdown& o);
  const Entry* find(std::string_view name) const;
  double seconds_for(std::string_view name) const;
  double total_seconds() const;
  bool empty() const { return entries.empty(); }

  /// "stages: a 1.23s (12), b 0.45s (3), ..." — descending by seconds.
  std::string to_string() const;
};

namespace obs {

/// RAII stage marker: governor stage + tracer span + breakdown timing +
/// heartbeat progress, in one scope. Both `gov` and `sb` may be null.
class ScopedStage {
public:
  /// `name` must outlive the scope (the flows pass string literals).
  ScopedStage(ResourceGovernor* gov, StageBreakdown* sb, const char* name);
  ~ScopedStage();
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

private:
  ResourceGovernor* gov_;
  StageBreakdown* sb_;
  const char* name_;
  const char* outer_ = nullptr; ///< the governor's stage before this one
  Span span_;
  uint64_t start_ns_;
};

} // namespace obs
} // namespace rmsyn
