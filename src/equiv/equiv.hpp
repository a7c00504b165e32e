// Combinational equivalence checking — the reproduction of SIS's `verify`,
// which the paper runs on every synthesized circuit. Three steps, cheapest
// first: a 256-pattern random-simulation miter on the two original networks
// rejects obvious mismatches; a structural-hashing miter (both networks
// strashed into one network over shared PIs) proves every PO pair whose
// heads hash to the same node; BDDs, built once over that miter and only
// over the cones of the pairs structure left open, decide the rest.
#pragma once

#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "network/network.hpp"
#include "tt/truth_table.hpp"

namespace rmsyn {

/// BDD of a gate of type `t` over its fanins' BDDs, in fanin order: the
/// one gate-to-BDD fold. Const0/Const1 ignore `operands`; Pi is not a gate
/// and yields kFalse.
BddRef gate_bdd(BddManager& mgr, GateType t,
                const std::vector<BddRef>& operands);

/// Builds the BDD of every live node; returns one ref per node id (dead
/// nodes map to kFalse). `mgr` must have at least net.pi_count() variables;
/// PI i maps to manager variable i.
std::vector<BddRef> node_bdds(BddManager& mgr, const Network& net);

/// BDDs of the primary outputs only.
std::vector<BddRef> output_bdds(BddManager& mgr, const Network& net);

struct EquivResult {
  bool equivalent = false;
  std::string reason; ///< human-readable mismatch description when not
  /// False when a governed check ran out of budget before reaching a
  /// verdict; `equivalent` is then meaningless. Ungoverned checks always
  /// decide.
  bool decided = true;
  /// PO pairs proved by the structural miter (their heads hashed to one
  /// node) and PO pairs proved by comparing BDDs. On a decided equivalent
  /// result they add up to the PO count.
  std::size_t proved_by_structure = 0;
  std::size_t proved_by_bdd = 0;
};

/// Checks functional equivalence of two networks with identical PI/PO
/// counts, matching PIs and POs by position. With a governor attached the
/// BDD phase is budgeted: on a trip the result comes back undecided
/// (decided == false) rather than as a spurious NOT-EQUIVALENT. The
/// random-simulation prepass and the structural miter always run, so
/// mismatches simulation sees and pairs structure proves are decided even
/// on an exhausted budget; when structure proves every pair no BDD is
/// built at all.
EquivResult check_equivalence(const Network& a, const Network& b,
                              uint64_t sim_seed = 0xC0FFEE,
                              ResourceGovernor* governor = nullptr);

/// Checks a network against explicit truth tables (PO i vs tts[i]).
EquivResult check_against_tts(const Network& net,
                              const std::vector<TruthTable>& tts);

} // namespace rmsyn
