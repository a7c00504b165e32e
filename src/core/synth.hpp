// The complete synthesis flow of the paper (Sections 2-4):
//
//   spec → per-output ROBDD → polarity search → OFDD / FPRM cubes →
//   algebraic factorization (Method 1 or 2) → multi-output merge (resub) →
//   XOR redundancy removal → final network (+ internal verification).
//
// The input is any combinational specification given as a Network (two-level
// or multilevel — benchmark generators produce both); the flow re-derives
// the function via BDDs exactly as the paper derives OFDDs from the SIS BDD
// package, so the input form does not bias the result.
#pragma once

#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/redundancy.hpp"
#include "fdd/fprm.hpp"
#include "network/network.hpp"
#include "network/stats.hpp"
#include "obs/stage.hpp"
#include "rewrite/rewrite.hpp"
#include "util/governor.hpp"

namespace rmsyn {

enum class FactorMethod {
  Cubes, ///< Method 1: explicit cube factoring; an output whose cube list
         ///< is far larger than its OFDD is built from the OFDD (DESIGN.md §3.2)
  Ofdd,  ///< Method 2: network construction from the OFDD
  Best,  ///< run both per output, keep the smaller subnetwork
};

struct SynthOptions {
  FactorMethod method = FactorMethod::Best;
  PolarityOptions polarity;
  RedundancyOptions redundancy;
  bool run_redundancy_removal = true;
  bool run_resub = true;
  /// Explicit cube enumeration cap. Outputs whose FPRM exceeds it are
  /// factored with Method 2 only (the OFDD never enumerates cubes), and
  /// contribute only their enumerated prefix to the pattern sets.
  std::size_t cube_limit = std::size_t{1} << 17;
  /// Also try the spectrum-friendly PI order (see transform.hpp) in
  /// addition to the spec's natural order; off = natural order only
  /// (used by the ordering ablation).
  bool try_reach_order = true;
  /// Post-pass: DAG-aware cut rewriting against the NPN database
  /// (rewrite/rewrite.hpp, DESIGN.md §13). Best-of: the rewritten network
  /// is kept only when it strictly improves the paper cost, so enabling
  /// this can never worsen a circuit.
  bool run_rewrite = false;
  rw::RewriteOptions rewrite;
  /// Resource budget. On exhaustion the flow walks a degradation ladder
  /// instead of aborting: full polarity search → heuristic fixed polarity
  /// (PPRM, natural order) → Method 2 only → spec passthrough (failed).
  /// Each descent re-arms the governor with a fresh slice. Null = the
  /// exact pre-governor behavior.
  ResourceGovernor* governor = nullptr;
};

struct SynthReport {
  NetworkStats stats;
  double seconds = 0.0;
  std::vector<FprmForm> forms;      ///< per output (possibly truncated)
  std::vector<std::size_t> fprm_cube_counts; ///< per output
  RedundancyStats redundancy;
  std::size_t outputs_via_cubes = 0;
  std::size_t outputs_via_ofdd = 0;
  /// DD-kernel counters accumulated over every manager the flow created
  /// (one per candidate PI order).
  BddStats bdd;
  /// Incremental-simulation counters accumulated over the flow's resub
  /// prefilters and the redundancy pass (sim/sim.hpp).
  SimStats sim;
  /// Cut-rewriting post-pass counters (all-zero unless opt.run_rewrite).
  rw::RewriteStats rewrite;
  /// ok, degraded:<stage-of-first-trip>, or failed:<reason>. Always `ok`
  /// when no governor is attached.
  FlowStatus status;
  /// How many ladder descents the result consumed (0 = full flow).
  std::size_t ladder_descents = 0;
  /// Wall-clock per stage (polarity-search, ofdd-build, factor, ...);
  /// stage names match the governor's stage and the trace spans.
  StageBreakdown stages;
  /// Cooperative governor polls consumed (0 when no governor attached).
  uint64_t governor_polls = 0;
};

/// Runs the full flow. PI/PO order of the result matches the spec.
/// (The spectrum-friendly PI ordering it uses internally is available as
/// spectrum_friendly_pi_order() in network/transform.hpp.)
Network synthesize(const Network& spec, const SynthOptions& opt = {},
                   SynthReport* report = nullptr);

} // namespace rmsyn
