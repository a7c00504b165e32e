// Cube: a product term over n Boolean variables, stored as two bit masks
// (positive-literal mask, negative-literal mask). This is the unit of both
// the SOP algebra used by the SIS-style baseline and the FPRM (AND/XOR)
// algebra used by the paper's flow — an FPRM cube is simply a cube whose
// literal polarities agree with the function's polarity vector.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace rmsyn {

class Cube {
public:
  Cube() = default;
  /// Universal cube (no literals) over nvars variables.
  explicit Cube(int nvars);

  /// Parses espresso notation: one char per variable, '1' positive literal,
  /// '0' negative literal, '-' absent.
  static Cube parse(const std::string& s);

  int nvars() const { return nvars_; }

  /// Widens the variable space (new variables carry no literal).
  void resize_vars(int nvars);

  bool has_pos(int v) const { return pos_.get(v); }
  bool has_neg(int v) const { return neg_.get(v); }
  bool has_var(int v) const { return pos_.get(v) || neg_.get(v); }

  void add_pos(int v) { pos_.set(v); neg_.set(v, false); }
  void add_neg(int v) { neg_.set(v); pos_.set(v, false); }
  void drop_var(int v) { pos_.set(v, false); neg_.set(v, false); }
  /// Keeps only the literals `other` also has (the common cube).
  void keep_common(const Cube& other) { pos_ &= other.pos_; neg_ &= other.neg_; }

  /// Number of literals in the cube.
  int literal_count() const { return static_cast<int>(pos_.count() + neg_.count()); }
  bool is_universal() const { return pos_.none() && neg_.none(); }

  /// Variables with a literal in this cube, as a mask.
  BitVec support() const { return pos_ | neg_; }

  /// True when this cube evaluates to 1 on the minterm (bit i = value of
  /// variable i, variables beyond 64 not supported by this overload).
  bool eval(uint64_t minterm) const;
  /// General overload for wide inputs.
  bool eval(const BitVec& assignment) const;

  /// Cube containment: *this covers `other` iff every literal of *this
  /// appears in `other` (i.e. other is a sub-cube / more specific).
  bool covers(const Cube& other) const;

  /// True when the two cubes share a variable with opposite polarity.
  /// The narrower cube's absent words carry no literal.
  bool clashes(const Cube& other) const;

  /// Number of variables in which the cubes have opposite literals.
  int distance(const Cube& other) const;

  /// Intersection (AND) of two cubes; valid only when !clashes(other).
  Cube intersect(const Cube& other) const;

  /// Cofactor of this cube with respect to variable v = value: drops the
  /// matching literal. Returns false when the cube vanishes (clashing
  /// literal).
  bool cofactor_inplace(int v, bool value);

  /// Drops every literal that `lits` also has, in either polarity (the
  /// cofactor by `lits` of a cube that does not clash with it). `lits` may
  /// be narrower: its absent words carry no literal.
  void drop_literals(const Cube& lits);

  /// Algebraic quotient *this / divisor: removes the divisor's literals.
  /// Valid only when divisor's literals are all present with same polarity.
  bool divisible_by(const Cube& divisor) const;
  Cube divide(const Cube& divisor) const;

  const BitVec& pos_mask() const { return pos_; }
  const BitVec& neg_mask() const { return neg_; }

  bool operator==(const Cube& o) const = default;
  bool operator<(const Cube& o) const;

  /// espresso-style rendering, e.g. "1-0-".
  std::string to_string() const;

  std::size_t hash() const;

private:
  int nvars_ = 0;
  BitVec pos_;
  BitVec neg_;
};

struct CubeHash {
  std::size_t operator()(const Cube& c) const { return c.hash(); }
};

} // namespace rmsyn
