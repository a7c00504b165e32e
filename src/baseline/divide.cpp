#include "baseline/divide.hpp"

#include <algorithm>
#include <cassert>

namespace rmsyn {

DivisionResult divide_by_cube(const Cover& f, const Cube& d) {
  DivisionResult r{Cover(f.nvars()), Cover(f.nvars())};
  for (const auto& c : f.cubes()) {
    if (c.divisible_by(d)) r.quotient.add(c.divide(d));
    else r.remainder.add(c);
  }
  return r;
}

DivisionResult divide(const Cover& f, const Cover& d) {
  assert(!d.empty());
  if (d.size() == 1) return divide_by_cube(f, d.cubes()[0]);

  // Q = ∩_i (F / d_i); R = F - Q·D.
  Cover q = divide_by_cube(f, d.cubes()[0]).quotient;
  for (std::size_t i = 1; i < d.size() && !q.empty(); ++i) {
    const Cover qi = divide_by_cube(f, d.cubes()[i]).quotient;
    Cover inter(f.nvars());
    for (const auto& a : q.cubes())
      for (const auto& b : qi.cubes())
        if (a == b) inter.add(a);
    q = std::move(inter);
  }
  DivisionResult r{q, Cover(f.nvars())};
  if (q.empty()) {
    r.remainder = f;
    return r;
  }
  // Product cubes Q·D, removed from F to form the remainder.
  std::vector<Cube> products;
  for (const auto& a : q.cubes())
    for (const auto& b : d.cubes())
      products.push_back(a.intersect(b));
  for (const auto& c : f.cubes()) {
    if (std::find(products.begin(), products.end(), c) == products.end())
      r.remainder.add(c);
  }
  return r;
}

Cube largest_common_cube(const Cover& f) {
  assert(!f.empty());
  Cube common = f.cubes()[0];
  for (std::size_t i = 1; i < f.size(); ++i) common.keep_common(f.cubes()[i]);
  return common;
}

bool is_cube_free(const Cover& f) {
  if (f.size() <= 1) return false;
  return largest_common_cube(f).is_universal();
}

} // namespace rmsyn
