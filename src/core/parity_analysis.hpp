// The paper's Section-4 parity-of-cubes controllability procedure.
//
// In a network built by algebraic factorization without the reduction rules
// (the paper's assumption (3)), every XOR gate's two fanin functions are
// XOR-sums of disjoint subsets of the output's FPRM cubes. Whether an input
// pattern (a, b) can occur at the gate is then a question about achievable
// *cube parities*: which pairs (parity of true cubes in g, parity of true
// cubes in h) some PI assignment realizes.
//
// The paper enumerates candidate assignments of a decidable shape — "set
// all the variables in all the related cubes to 1 and all other variables
// to 0" — i.e. patterns P_T parameterized by a cube subset T, under which a
// cube C evaluates to 1 iff support(C) ⊆ support(∪T) (activating T can turn
// other, covered cubes on as well; that closure is what makes the
// enumeration non-trivial and is exactly why the accumulated-parity
// bookkeeping is needed). The full method was cut from the paper for space;
// this module implements the natural bounded variant — all T up to a size
// cap, seeded by the singletons (the OC set), ∅ (AZ) and the full set (AO)
// — which is sound by construction (every reported pattern comes with a
// concrete witness assignment) and empirically complete on the benchmark
// circuits (see the Circuits/ParityScore tests in test_parity_analysis,
// which score it against the exact BDD decision).
#pragma once

#include <vector>

#include "fdd/fprm.hpp"
#include "network/network.hpp"
#include "util/bitvec.hpp"

namespace rmsyn {

/// A Section-3 step-5 tree for one output: a balanced XOR tree over the
/// cube product terms, annotated with each node's cube subset.
struct AnnotatedXorTree {
  Network net;
  FprmForm form;
  /// Indices of this output's FPRM cubes feeding each network node
  /// (leaf AND nodes carry one index; XOR nodes carry the union of their
  /// children; PIs and inverters carry none).
  std::vector<std::vector<uint32_t>> cube_sets;
  /// The 2-input XOR gates of the tree, in topological order.
  std::vector<NodeId> xor_gates;
};

/// Builds the annotated tree (assumption (3): no reduction rules applied).
AnnotatedXorTree build_annotated_tree(const FprmForm& form);

struct ParityVerdict {
  /// Bit (g*2 + h): pattern (g, h) proven controllable, with a witness.
  uint8_t achieved = 0;
  /// Witness PI assignment per pattern (indexed g*2+h; meaningful only for
  /// achieved bits). Width = form.nvars.
  BitVec witness[4];
};

struct ParityAnalysisOptions {
  /// Maximum size of the activating cube subsets T that are enumerated
  /// beyond the paper's seeds (∅, singletons, the full set).
  std::size_t max_subset = 3;
  /// Safety cap on enumerated subsets per gate.
  std::size_t max_enumerations = 200'000;
};

/// Decides, for one XOR gate with fanin cube subsets `g_cubes` / `h_cubes`
/// of `form`, which of the four input patterns the cube-parity enumeration
/// can demonstrate. Sound: every achieved pattern has a witness that
/// genuinely produces it (callers can re-simulate to confirm).
ParityVerdict parity_controllability(const FprmForm& form,
                                     const std::vector<uint32_t>& g_cubes,
                                     const std::vector<uint32_t>& h_cubes,
                                     const ParityAnalysisOptions& opt = {});

/// Runs the analysis over every XOR gate of an annotated tree. Returns one
/// verdict per entry of tree.xor_gates.
std::vector<ParityVerdict> analyze_tree(const AnnotatedXorTree& tree,
                                        const ParityAnalysisOptions& opt = {});

} // namespace rmsyn
