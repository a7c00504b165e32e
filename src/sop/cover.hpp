// Cover: a sum (OR) of cubes — the classic two-level SOP representation used
// by the SIS-style baseline. Provides the recursive unate/Shannon algorithms
// (tautology, complement, cofactor) that two-level minimization and the
// redundancy checks are built on.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sop/cube.hpp"
#include "tt/truth_table.hpp"

namespace rmsyn {

class Cover {
public:
  Cover() = default;
  explicit Cover(int nvars) : nvars_(nvars) {}
  Cover(int nvars, std::vector<Cube> cubes)
      : nvars_(nvars), cubes_(std::move(cubes)) {}

  static Cover constant(int nvars, bool value);
  /// One positive (or negative) literal.
  static Cover literal(int nvars, int var, bool positive);
  /// Exact SOP of a truth table: one cube per minterm, then merged/reduced.
  static Cover from_truth_table(const TruthTable& tt);

  int nvars() const { return nvars_; }
  const std::vector<Cube>& cubes() const { return cubes_; }
  std::vector<Cube>& cubes() { return cubes_; }
  std::size_t size() const { return cubes_.size(); }
  bool empty() const { return cubes_.empty(); }

  void add(Cube c) { cubes_.push_back(std::move(c)); }

  /// Widens the variable space of the cover and all its cubes.
  void resize_vars(int nvars) {
    nvars_ = nvars;
    for (auto& c : cubes_) c.resize_vars(nvars);
  }

  int literal_count() const;
  bool is_const0() const { return cubes_.empty(); }
  /// True when the cover contains a universal cube (cheap check only).
  bool has_universal_cube() const;

  bool eval(uint64_t minterm) const;
  bool eval(const BitVec& assignment) const;

  /// Shannon cofactor with respect to var=value.
  Cover cofactor(int var, bool value) const;
  /// Cofactor with respect to a cube (all its literal assignments), in one
  /// pass: cubes that clash with `c` vanish, survivors keep cover order.
  /// `c` may be narrower than the cover (absent words carry no literal).
  Cover cofactor(const Cube& c) const;

  /// The splitting variable of tautology and complement: of the variables
  /// with literals of both polarities, the one in the most cubes (the
  /// lowest on a tie); -1 when the cover is unate.
  int most_binate_var() const;

  /// Exact tautology check (unate reduction + Shannon expansion).
  bool is_tautology() const;

  /// Bounded-effort tautology: explores at most `budget` recursion nodes.
  /// When the budget runs out, returns false and clears *decided — callers
  /// must treat that as "unknown", which is conservative for redundancy
  /// tests (a cube is kept unless proven covered).
  bool is_tautology_bounded(long budget, bool* decided = nullptr) const;

  /// Exact complement via Shannon expansion.
  Cover complement() const;

  /// Bounded-effort complement: nullopt when more than `budget` recursion
  /// nodes would be needed.
  std::optional<Cover> complement_bounded(long budget) const;

  /// True when this cover implies/contains the given cube (the cube's
  /// cofactor of the cover is a tautology). Like cofactor(cube), the cube
  /// may be narrower than the cover.
  bool covers_cube(const Cube& c) const;

  /// Variables occurring in any cube, as a mask.
  BitVec support() const;

  Cover operator|(const Cover& o) const;
  Cover operator&(const Cover& o) const;

  /// Converts to a truth table (nvars must be small).
  TruthTable to_truth_table() const;

  std::string to_string() const;

private:
  int nvars_ = 0;
  std::vector<Cube> cubes_;
};

} // namespace rmsyn
