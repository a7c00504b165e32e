// Section 4 — redundancy analysis of XOR gates.
//
// A 2-input XOR gate inside the factored network degenerates when one of its
// four input patterns can never occur (uncontrollable) or can never be seen
// at an output (unobservable):
//
//   missing (1,1) →  g + h        (Property 3)
//   missing (0,1) →  g · h̄        (Property 4)
//   missing (1,0) →  ḡ · h        (Property 4)
//   missing (0,0) →  (g·h)'       (not needed under the paper's assumptions
//                                  — Property 1 makes (0,0) controllable —
//                                  but handled for generality)
//
// The procedure follows the paper's structure:
//  1. Simulate the decidable PI pattern set derived from the FPRM cubes —
//     AZ (all literals 0), AO (all literals 1) and OC (one pattern per
//     cube) — and record which input patterns appear at each XOR gate.
//     Properties 8/9 guarantee this already pins down most gates as
//     irreducible, so no further work is spent on them.
//  2. For each XOR gate still missing a pattern, decide controllability
//     exactly (the paper's parity-of-cubes argument; here decided on the
//     node BDDs, which is the same decision procedure made explicit) and
//     reduce per Properties 3/4. These rewrites preserve every node
//     function — the pattern never occurs for any input.
//  3. Observability domino (Properties 5-7): reductions create AND/OR gates
//     with controlling values on the path to the POs; single-fanout XOR
//     gates feeding them through inverter chains are reduced when the
//     pattern is masked by the side inputs. Iterated to fixpoint, moving
//     from the POs toward the PIs.
//  4. First-level AND-gate fanin redundancy via the OC (s-a-0) and SA1
//     (one-bit-dropped) pattern sets: fanins whose stuck-at faults are
//     untestable are set to constants and eliminated. Fault-simulation on
//     the pattern sets filters candidates; each removal is confirmed
//     exactly before being applied.
#pragma once

#include <vector>

#include "fdd/fprm.hpp"
#include "network/network.hpp"
#include "network/simulate.hpp"
#include "sim/sim.hpp"
#include "util/governor.hpp"

namespace rmsyn {

struct RedundancyOptions {
  bool use_pattern_filter = true; ///< step 1 pruning (paper's fast path)
  bool observability_pass = true; ///< Properties 5-7
  bool and_fanin_pass = true;     ///< the SA1/OC stuck-at pass
  std::size_t max_patterns = std::size_t{1} << 16;
  /// Budget for the exact (BDD) decisions. The pass stays sound under a
  /// trip: every rewrite needs an exact proof, so undecidable candidates
  /// are simply kept and the remaining gates are left untouched.
  ResourceGovernor* governor = nullptr;
};

struct RedundancyStats {
  std::size_t xor_gates_before = 0;
  std::size_t xor_gates_after = 0;
  std::size_t reduced_to_or = 0;      ///< Property 3
  std::size_t reduced_to_andnot = 0;  ///< Property 4 (either orientation)
  std::size_t reduced_to_nand = 0;    ///< the (0,0) generalization
  std::size_t observability_reductions = 0; ///< Properties 6/7
  std::size_t fanins_removed = 0;     ///< step 4
  std::size_t exact_checks = 0;       ///< BDD decisions performed
  std::size_t pattern_pruned = 0;     ///< XOR gates proven irreducible by
                                      ///< simulation alone (no exact check)
  /// Incremental-simulation counters (sim/sim.hpp): step 1's pattern
  /// recording and step 4's per-candidate dirty-region resims.
  SimStats sim;
};

/// Builds the paper's PI pattern sets from the FPRM forms of the outputs:
/// AZ, AO (per polarity vector), OC (one per cube) and, when
/// `include_sa1`, the SA1 set (each OC pattern with one cube literal
/// dropped). Patterns are capped at `max_patterns`.
PatternSet fprm_pattern_set(std::size_t num_pis,
                            const std::vector<FprmForm>& forms,
                            bool include_sa1, std::size_t max_patterns);

/// Runs the full Section-4 procedure and returns the reduced network.
/// `forms` are the per-output FPRM forms used to generate pattern sets
/// (may be empty: the pattern filter then uses random patterns).
Network remove_xor_redundancy(const Network& net,
                              const std::vector<FprmForm>& forms,
                              const RedundancyOptions& opt = {},
                              RedundancyStats* stats = nullptr);

} // namespace rmsyn
