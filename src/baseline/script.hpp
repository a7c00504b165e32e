// The conventional-synthesis baseline: a SIS-style script over the SOP
// network model (the paper compares against the best of SIS `rugged` /
// `boolean` / `algebraic`, each followed by `red_removal`). The pass
// sequence mirrors those scripts: sweep + simplify (espresso on node
// covers), eliminate (value-based collapsing), iterated kernel + cube
// extraction, node factoring into AND/OR/NOT gates, and redundant-wire
// removal on the gate network.
//
// Everything here is pure AND/OR factorization — like the SIS algebraic
// engine, it can only produce XOR structures by accident, which is exactly
// the weakness on arithmetic functions the paper exploits.
#pragma once

#include "baseline/sop_network.hpp"
#include "network/network.hpp"
#include "network/stats.hpp"
#include "obs/stage.hpp"
#include "util/governor.hpp"

namespace rmsyn {

struct BaselineOptions {
  bool run_redundancy_removal = true; ///< the paper's `red_removal` step
  /// Resource budget. Every prefix of the SOP script is an equivalent
  /// network, so on a trip the remaining optimization passes are skipped
  /// and the current network is factored and returned (status degraded).
  ResourceGovernor* governor = nullptr;
};

struct BaselineReport {
  NetworkStats stats;
  double seconds = 0.0;
  int sop_lits_initial = 0; ///< SOP literals after simplify
  int sop_lits_final = 0;   ///< SOP literals after extraction
  int nodes_extracted = 0;
  /// ok or degraded:<stage>; the script cannot fail (any pass prefix is a
  /// valid result), so Failed never originates here.
  FlowStatus status;
  /// Wall-clock per baseline-* stage (names match the governor's stage).
  StageBreakdown stages;
  /// Cooperative governor polls consumed (0 when no governor attached).
  uint64_t governor_polls = 0;
};

/// Runs the baseline script on a specification network.
Network baseline_synthesize(const Network& spec, const BaselineOptions& opt = {},
                            BaselineReport* report = nullptr);

} // namespace rmsyn
