// Fixed-Polarity Reed-Muller forms and their ordered functional decision
// diagrams (OFDDs) — Section 2 of the paper.
//
// Representation note. The paper derives the OFDD from the binary decision
// tree whose paths to the 1-terminal are the FPRM cubes, merging isomorphic
// subtrees (BDD-style reduction, both 0- and 1-branches kept). That graph is
// precisely the ROBDD of the *Reed-Muller coefficient function*
//
//    R_f(S) = 1  iff the cube  ∏_{i∈S} lit_i  appears in the FPRM of f,
//
// viewed as a Boolean function of the "presence bits" S. We therefore store
// OFDDs as plain BddRefs in the shared BddManager:
//   * positive Davio on x:  f = f_x̄ ⊕ x·(f_x̄ ⊕ f_x)   →  node(x, lo=R(f_x̄), hi=R(f⊕))
//   * negative Davio on x:  f = f_x ⊕ x̄·(f_x̄ ⊕ f_x)   →  node(x, lo=R(f_x),  hi=R(f⊕))
// A node *skipped* on a path (lo-child == hi-child before reduction) means
// both "literal present" and "literal absent" cubes exist — the paper's
// "2^(n-k) cubes per path with k nonterminal nodes".
//
// Everything downstream (cube extraction for factorization Method 1, initial
// network construction for Method 2, polarity search) operates on this view.
#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "tt/truth_table.hpp"
#include "util/bitvec.hpp"

namespace rmsyn {

/// A fixed-polarity Reed-Muller form: XOR of cubes over a support set with a
/// per-variable polarity (the paper's polarity vector).
struct FprmForm {
  int nvars = 0;             ///< global input count of the function
  std::vector<int> support;  ///< ascending global variable ids f depends on
  BitVec polarity;           ///< global width; bit v = 1 → literal is x_v, 0 → x̄_v
  /// Each cube is a mask over *support positions*: bit i set means literal
  /// of variable support[i] (with its fixed polarity) is in the cube. The
  /// all-zero mask is the constant-1 cube.
  std::vector<BitVec> cubes;
  /// True when cube extraction stopped at the cap (cubes is then a prefix).
  bool truncated = false;

  std::size_t cube_count() const { return cubes.size(); }
  bool has_constant_one_cube() const;
  /// Total number of literals across cubes.
  std::size_t literal_count() const;
  /// Evaluates the form on a full primary-input assignment.
  bool eval(const BitVec& assignment) const;
};

/// The OFDD of one output: the Reed-Muller spectrum as a BDD, plus the data
/// needed to interpret it.
struct Ofdd {
  BddRef root = BddManager::kFalse;
  std::vector<int> support;
  BitVec polarity;
};

/// Computes the Reed-Muller spectrum R_f of `f` over exactly the variables
/// in `vars` (ascending; must contain support(f)) under the given polarity
/// vector. The result is a BDD over the same variable ids, interpreted as
/// presence bits.
BddRef rm_spectrum(BddManager& mgr, BddRef f, const std::vector<int>& vars,
                   const BitVec& polarity);

/// One polarity flip on a spectrum: given R_f under some polarity, returns
/// R_f under the same polarity with variable v's phase flipped (the
/// butterfly step S|v=0 ^= S|v=1, an involution). v must be one of the
/// spectrum's variables. A node at v's level becomes (v, lo⊕hi, hi), a
/// subgraph below it becomes (v, 0, g), and nodes above it are rebuilt.
/// Governed: returns kInvalid when the manager's governor trips.
BddRef rm_flip(BddManager& mgr, BddRef spectrum, int v);

/// The spectrum rm_spectrum builds, as a bit table (vars.size() <= 26):
/// input i of the table is the variable of `vars` at the (k-1-i)-th level
/// of the manager's current order, so the top level is the most
/// significant index bit and each level's cofactors are contiguous blocks.
/// Its popcount is the cube count and its bdd_size() the spectrum's
/// BddManager::size().
TruthTable rm_spectrum_table(const BddManager& mgr, BddRef f,
                             const std::vector<int>& vars,
                             const BitVec& polarity);

/// Inverse of rm_spectrum: rebuilds the function BDD from a spectrum
/// (used by tests to check the transform is an involution-like pair).
BddRef rm_inverse(BddManager& mgr, BddRef spectrum, const std::vector<int>& vars,
                  const BitVec& polarity);

/// Number of FPRM cubes = number of satisfying presence assignments of the
/// spectrum, restricted to `vars`.
double fprm_cube_count(BddManager& mgr, BddRef spectrum,
                       const std::vector<int>& vars);

/// Builds the OFDD of f under `polarity` (support is computed internally).
Ofdd build_ofdd(BddManager& mgr, BddRef f, const BitVec& polarity);

/// Extracts the explicit FPRM cube list from an OFDD. Stops after
/// `cube_limit` cubes and sets `truncated`.
FprmForm extract_fprm(BddManager& mgr, const Ofdd& ofdd, int nvars,
                      std::size_t cube_limit = std::size_t{1} << 20);

struct PolarityOptions {
  /// A support (the union of the outputs' supports) of size <=
  /// exhaustive_limit is searched exhaustively: every one of its 2^k
  /// polarities is scored, the lowest mask at minimum cost wins. A larger
  /// one is searched by greedy one-variable flips from all-positive, in
  /// ascending variable order, for up to greedy_passes passes.
  int exhaustive_limit = 8;
  int greedy_passes = 3;
};

/// Searches for the polarity vector minimizing the FPRM cube count
/// (tie-break: spectrum node count); the one-output case of
/// best_polarity_multi. Returns a global-width polarity vector (bits
/// outside the support are 1/positive).
BitVec best_polarity(BddManager& mgr, BddRef f, const PolarityOptions& opt = {});

/// Single polarity vector for a multi-output function, minimizing the total
/// cube count over all outputs (tie-break: total spectrum node count). Used
/// by the shared-OFDD construction, where one polarity per PI is required
/// for cross-output sharing. Each output's spectrum is built once, under
/// the all-positive polarity, and every candidate moves it by one-variable
/// flips (rm_flip): a bit table for a support of up to 16 variables, a
/// pinned BDD above. The governor is polled once per candidate; when it
/// trips, the best polarity seen so far is returned.
BitVec best_polarity_multi(BddManager& mgr, const std::vector<BddRef>& fs,
                           const PolarityOptions& opt = {});

/// The paper's prime cubes (after Csanky et al.): cube p is prime in f iff
/// support(p) is not properly contained in the support of any other cube.
/// Returns one flag per cube of the form. (For cubes, support == the cube
/// mask itself since each variable appears at most once.)
std::vector<bool> prime_flags(const FprmForm& form);

/// Oracle path used by tests: FPRM spectrum of a truth table, the PPRM
/// spectrum of f with its negative-polarity inputs complemented.
TruthTable fprm_spectrum_tt(const TruthTable& f, const BitVec& polarity);

/// Expands an FprmForm back into a truth table (small nvars only).
TruthTable fprm_to_tt(const FprmForm& form);

} // namespace rmsyn
