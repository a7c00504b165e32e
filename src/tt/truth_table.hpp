// Explicit truth tables for functions of up to ~24 variables.
//
// Truth tables are the ground-truth oracle of this repository: benchmark
// generators produce them for small circuits, tests compare every synthesis
// result against them, and the Reed-Muller (butterfly) transform on them is
// the reference implementation that the BDD-based FPRM extraction is checked
// against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace rmsyn {

class TruthTable {
public:
  TruthTable() = default;
  /// All-zero table over `nvars` inputs.
  explicit TruthTable(int nvars);

  /// Builds a table by evaluating `fn` on every minterm (bit i of the
  /// argument is input i).
  static TruthTable from_function(int nvars, const std::function<bool(uint64_t)>& fn);
  /// Projection x_i.
  static TruthTable variable(int nvars, int var);
  static TruthTable constant(int nvars, bool value);

  int nvars() const { return nvars_; }
  uint64_t size() const { return uint64_t{1} << nvars_; }

  bool get(uint64_t minterm) const { return bits_.get(minterm); }
  void set(uint64_t minterm, bool v = true) { bits_.set(minterm, v); }

  uint64_t count_ones() const { return bits_.count(); }
  bool is_const0() const { return bits_.none(); }
  bool is_const1() const { return bits_.count() == size(); }

  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  TruthTable operator~() const;
  bool operator==(const TruthTable& o) const = default;

  /// Cofactor with x_var fixed to `value`; the result still ranges over all
  /// nvars inputs (the fixed variable becomes irrelevant).
  TruthTable cofactor(int var, bool value) const;
  /// True iff the function depends on x_var.
  bool depends_on(int var) const;
  /// Indices of all variables the function depends on.
  std::vector<int> support() const;

  /// g(y) = f(x) with x_i = y_{perm[i]}: input i of this function is fed
  /// from input perm[i] of the result. `perm` must be a permutation of
  /// 0..nvars-1.
  TruthTable permute_inputs(const std::vector<int>& perm) const;
  /// g(y) = f(y with x_var complemented).
  TruthTable negate_input(int var) const;
  /// Complement every input whose bit is set in `mask` (bit i = x_i).
  TruthTable negate_inputs(uint64_t mask) const;
  /// Projects onto the support: result ranges over support().size()
  /// variables, with new variable j fed from old variable support()[j].
  TruthTable shrink_to_support() const;
  /// Pads to `nvars` >= nvars() inputs; the new variables are irrelevant.
  TruthTable extend(int nvars) const;

  /// In-place Reed-Muller (positive-polarity) butterfly transform. Applying
  /// it to a function yields its PPRM spectrum (coefficient table); applying
  /// it twice is the identity — it is an involution over GF(2).
  void reed_muller_transform();

  /// One butterfly step the other way, S|x_var=0 ^= S|x_var=1, leaving
  /// S|x_var=1 unchanged. On a fixed-polarity Reed-Muller coefficient table
  /// it flips x_var's polarity (f = A ⊕ x·B = (A ⊕ B) ⊕ x̄·B); it is an
  /// involution.
  void rm_flip(int var);

  /// Node count of this function's ROBDD with complement edges, as
  /// BddManager::size() reports it, under the order that puts the most
  /// significant index bit on top: per level, the distinct cofactor blocks
  /// whose two halves differ, counted up to complement.
  std::size_t bdd_size() const;

  /// PPRM coefficient table of this function (non-mutating convenience).
  TruthTable pprm_spectrum() const;

  /// "0110..." rendering, minterm 0 first. For tests and diagnostics.
  std::string to_binary_string() const;

  const BitVec& raw() const { return bits_; }
  /// Word-level writers fill the table here; bits at and above size() must
  /// stay zero.
  BitVec& raw() { return bits_; }

private:
  int nvars_ = 0;
  BitVec bits_;
};

} // namespace rmsyn
