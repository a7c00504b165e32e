// Multi-output merging. The paper factors each output separately and uses
// SIS `resub` to share logic between the per-output networks. We reproduce
// that with structural hashing plus BDD sweeping: nodes with identical (or
// complementary) global functions are merged onto one representative.
#pragma once

#include "network/network.hpp"
#include "sim/sim.hpp"
#include "util/governor.hpp"

namespace rmsyn {

struct ResubOptions {
  /// Simulation-signature screen (sim/sim.hpp): equal functions have equal
  /// signatures, so when no two live nodes collide (modulo complement) the
  /// exact sweep cannot merge anything and all BDD work is skipped. The
  /// result is bit-identical to the exact path either way.
  bool sim_prefilter = true;
  /// Prefilter counters accumulated here when non-null.
  SimStats* sim_stats = nullptr;
  /// Budget for the BDD sweep; on a trip the sweep is abandoned and the
  /// structurally hashed network is returned (always equivalent).
  ResourceGovernor* governor = nullptr;
};

/// Returns an equivalent network with functionally identical nodes merged.
Network resub_merge(const Network& net, const ResubOptions& opt = {});

} // namespace rmsyn
