#include "baseline/kernels.hpp"

#include "baseline/divide.hpp"
#include "sop/minimize.hpp"

namespace rmsyn {

namespace {

// Literal index space: 2*v for positive, 2*v+1 for negative.
Cube lit_cube(int nvars, int lit) {
  Cube c(nvars);
  if (lit % 2 == 0) c.add_pos(lit / 2); else c.add_neg(lit / 2);
  return c;
}

// Number of cubes of f containing each literal.
std::vector<int> literal_counts(const Cover& f) {
  std::vector<int> counts(2 * static_cast<std::size_t>(f.nvars()), 0);
  for (const auto& c : f.cubes()) {
    for (std::size_t w = 0; w < c.pos_mask().words(); ++w) {
      for (uint64_t m = c.pos_mask().word(w); m != 0; m &= m - 1)
        ++counts[2 * (w * 64 + static_cast<std::size_t>(__builtin_ctzll(m)))];
      for (uint64_t m = c.neg_mask().word(w); m != 0; m &= m - 1)
        ++counts[2 * (w * 64 + static_cast<std::size_t>(__builtin_ctzll(m))) + 1];
    }
  }
  return counts;
}

// True when the cube has a literal on a variable below v.
bool has_var_below(const Cube& c, int v) {
  const auto full = static_cast<std::size_t>(v) / 64;
  for (std::size_t w = 0; w < full; ++w)
    if ((c.pos_mask().word(w) | c.neg_mask().word(w)) != 0) return true;
  const uint64_t low = (uint64_t{1} << (v % 64)) - 1;
  return low != 0 &&
         ((c.pos_mask().word(full) | c.neg_mask().word(full)) & low) != 0;
}

void kernels_rec(const Cover& g, const Cube& co, int min_lit,
                 std::vector<Kernel>& out, std::size_t max_kernels,
                 bool level0_only) {
  if (out.size() >= max_kernels) return;
  const int nlits = 2 * g.nvars();
  const std::vector<int> counts = literal_counts(g);
  bool has_sub_kernel = false;
  for (int lit = min_lit; lit < nlits; ++lit) {
    if (counts[static_cast<std::size_t>(lit)] < 2) continue;
    const int var = lit / 2;
    const bool pos = lit % 2 == 0;
    const auto has_lit = [&](const Cube& c) {
      return pos ? c.has_pos(var) : c.has_neg(var);
    };
    // The quotient g / lit is made cube-free by its common cube, which is
    // the common cube of the cubes holding `lit`, minus `lit`.
    Cube common;
    bool first = true;
    for (const auto& c : g.cubes()) {
      if (!has_lit(c)) continue;
      if (first) common = c;
      else common.keep_common(c);
      first = false;
    }
    common.drop_var(var);
    // Skip if the common cube contains a literal smaller than `lit` (that
    // kernel is found through the smaller literal). The quotient has no
    // literal on `var` itself, so only lower variables matter.
    if (has_var_below(common, var)) continue;
    Cover kern(g.nvars());
    for (const auto& c : g.cubes()) {
      if (!has_lit(c)) continue;
      Cube k = c;
      k.drop_var(var);
      kern.add(k.divide(common));
    }
    Cube new_co = co.intersect(lit_cube(g.nvars(), lit)).intersect(common);
    has_sub_kernel = true;
    kernels_rec(kern, new_co, lit + 1, out, max_kernels, level0_only);
    if (!level0_only && out.size() < max_kernels)
      out.push_back({kern, new_co});
  }
  if (level0_only && !has_sub_kernel && g.size() >= 2 && out.size() < max_kernels)
    out.push_back({g, co});
}

} // namespace

std::vector<Kernel> kernels(const Cover& f, std::size_t max_kernels) {
  std::vector<Kernel> out;
  if (f.size() < 2) return out;
  const Cube common = largest_common_cube(f);
  Cover base(f.nvars());
  for (const auto& c : f.cubes()) base.add(c.divide(common));
  kernels_rec(base, common, 0, out, max_kernels, /*level0_only=*/false);
  // The cube-free F itself is a kernel.
  if (out.size() < max_kernels) out.push_back({base, common});
  return out;
}

std::vector<Kernel> level0_kernels(const Cover& f, std::size_t max_kernels) {
  std::vector<Kernel> out;
  if (f.size() < 2) return out;
  const Cube common = largest_common_cube(f);
  Cover base(f.nvars());
  for (const auto& c : f.cubes()) base.add(c.divide(common));
  kernels_rec(base, common, 0, out, max_kernels, /*level0_only=*/true);
  if (out.empty()) out.push_back({base, common});
  return out;
}

} // namespace rmsyn
