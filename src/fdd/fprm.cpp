#include "fdd/fprm.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <unordered_map>

namespace rmsyn {

bool FprmForm::has_constant_one_cube() const {
  return std::any_of(cubes.begin(), cubes.end(),
                     [](const BitVec& c) { return c.none(); });
}

std::size_t FprmForm::literal_count() const {
  std::size_t n = 0;
  for (const auto& c : cubes) n += c.count();
  return n;
}

bool FprmForm::eval(const BitVec& assignment) const {
  bool acc = false;
  for (const auto& cube : cubes) {
    bool term = true;
    for (std::size_t i = 0; i < support.size() && term; ++i) {
      if (!cube.get(i)) continue;
      const auto v = static_cast<std::size_t>(support[i]);
      const bool lit = polarity.get(v) ? assignment.get(v) : !assignment.get(v);
      term = lit;
    }
    acc ^= term;
  }
  return acc;
}

namespace {

// Memo key: (node ref, depth). Refs fit 32 bits (29 used); pack exactly.
uint64_t memo_key(BddRef f, std::size_t depth) {
  return (static_cast<uint64_t>(depth) << 32) | f;
}

// The per-variable Reed-Muller transform commutes, so the spectrum can be
// built in any variable order; descending the diagram requires the current
// level order of the manager.
std::vector<int> by_level(const BddManager& mgr, const std::vector<int>& vars) {
  std::vector<int> sorted = vars;
  std::sort(sorted.begin(), sorted.end(),
            [&](int a, int b) { return mgr.level_of(a) < mgr.level_of(b); });
  return sorted;
}

} // namespace

BddRef rm_spectrum(BddManager& mgr, BddRef f, const std::vector<int>& vars,
                   const BitVec& polarity) {
  // The walk below captures the level order, so it must not shift mid-build.
  BddManager::ReorderHold hold(mgr);
  const std::vector<int> ordered = by_level(mgr, vars);
  std::unordered_map<uint64_t, BddRef> memo;
  const std::function<BddRef(BddRef, std::size_t)> rec =
      [&](BddRef g, std::size_t depth) -> BddRef {
    if (BddManager::is_invalid(g)) return BddManager::kInvalid;
    if (depth == ordered.size()) {
      assert(mgr.is_terminal(g));
      return g;
    }
    const uint64_t key = memo_key(g, depth);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    const int v = ordered[depth];
    const BddRef g0 = mgr.cofactor(g, v, false);
    const BddRef g1 = mgr.cofactor(g, v, true);
    const BddRef gd = mgr.bdd_xor(g0, g1); // Boolean difference
    if (BddManager::is_invalid(gd)) return BddManager::kInvalid;
    const bool pos = polarity.get(static_cast<std::size_t>(v));
    const BddRef lo = rec(pos ? g0 : g1, depth + 1);
    if (BddManager::is_invalid(lo)) return BddManager::kInvalid;
    const BddRef hi = rec(gd, depth + 1);
    if (BddManager::is_invalid(hi)) return BddManager::kInvalid;
    const BddRef r = mgr.mk_node(v, lo, hi);
    memo.emplace(key, r);
    return r;
  };
  return rec(f, 0);
}

BddRef rm_inverse(BddManager& mgr, BddRef spectrum, const std::vector<int>& vars,
                  const BitVec& polarity) {
  BddManager::ReorderHold hold(mgr);
  const std::vector<int> ordered = by_level(mgr, vars);
  std::unordered_map<uint64_t, BddRef> memo;
  const std::function<BddRef(BddRef, std::size_t)> rec =
      [&](BddRef r, std::size_t depth) -> BddRef {
    if (BddManager::is_invalid(r)) return BddManager::kInvalid;
    if (depth == ordered.size()) {
      assert(mgr.is_terminal(r));
      return r;
    }
    const uint64_t key = memo_key(r, depth);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    const int v = ordered[depth];
    BddRef r_lo = r, r_hi = r;
    if (!mgr.is_terminal(r) && mgr.var_of(r) == v) {
      r_lo = mgr.lo_of(r);
      r_hi = mgr.hi_of(r);
    }
    const BddRef base = rec(r_lo, depth + 1);  // part without the literal
    if (BddManager::is_invalid(base)) return BddManager::kInvalid;
    const BddRef diff = rec(r_hi, depth + 1);  // coefficient of the literal
    if (BddManager::is_invalid(diff)) return BddManager::kInvalid;
    const bool pos = polarity.get(static_cast<std::size_t>(v));
    const BddRef lit = mgr.literal(v, pos);
    const BddRef g = mgr.bdd_xor(base, mgr.bdd_and(lit, diff));
    if (BddManager::is_invalid(g)) return BddManager::kInvalid;
    memo.emplace(key, g);
    return g;
  };
  return rec(spectrum, 0);
}

double fprm_cube_count(BddManager& mgr, BddRef spectrum,
                       const std::vector<int>& vars) {
  // sat_count counts over all manager variables; scale down to the
  // projection onto `vars`.
  double scale = 1.0;
  for (int i = 0; i < mgr.nvars() - static_cast<int>(vars.size()); ++i)
    scale *= 2.0;
  return mgr.sat_count(spectrum) / scale;
}

Ofdd build_ofdd(BddManager& mgr, BddRef f, const BitVec& polarity) {
  Ofdd o;
  const BitVec sup = mgr.support(f);
  for (std::size_t v = sup.first_set(); v != BitVec::npos; v = sup.next_set(v + 1))
    o.support.push_back(static_cast<int>(v));
  o.polarity = polarity;
  o.root = rm_spectrum(mgr, f, o.support, polarity);
  return o;
}

FprmForm extract_fprm(BddManager& mgr, const Ofdd& ofdd, int nvars,
                      std::size_t cube_limit) {
  FprmForm form;
  form.nvars = nvars;
  form.support = ofdd.support;
  form.polarity = ofdd.polarity;
  const bool complete = mgr.enumerate_sat(
      ofdd.root, ofdd.support, cube_limit, [&](const BitVec& presence) {
        form.cubes.push_back(presence);
        return true;
      });
  form.truncated = !complete;
  return form;
}

namespace {

// The candidate polarity for scan position `mask`: bit i of the mask
// complements variable vars[i], everything else stays positive. Mask 0 is
// PPRM; the exhaustive scan visits masks in ascending order and keeps the
// lowest mask at minimum cost.
BitVec polarity_of_mask(const std::vector<int>& vars, uint64_t mask,
                        int nvars) {
  BitVec pol(static_cast<std::size_t>(nvars));
  pol.set_all();
  for (std::size_t i = 0; i < vars.size(); ++i)
    if ((mask >> i) & 1) pol.set(static_cast<std::size_t>(vars[i]), false);
  return pol;
}

} // namespace

BitVec best_polarity(BddManager& mgr, BddRef f, const PolarityOptions& opt) {
  // The single-output search is exactly the multi search over one output:
  // same support, same (cube count, node count) cost, same scan order.
  return best_polarity_multi(mgr, {f}, opt);
}

BitVec best_polarity_multi(BddManager& mgr, const std::vector<BddRef>& fs,
                           const PolarityOptions& opt) {
  // Union of the outputs' supports.
  BitVec sup(static_cast<std::size_t>(mgr.nvars()));
  for (const BddRef f : fs) sup |= mgr.support(f);
  std::vector<int> vars;
  for (std::size_t v = sup.first_set(); v != BitVec::npos; v = sup.next_set(v + 1))
    vars.push_back(static_cast<int>(v));

  BitVec best(static_cast<std::size_t>(mgr.nvars()));
  best.set_all();
  if (vars.empty()) return best;

  // Per-output support lists (cube counts are projections onto them).
  std::vector<std::vector<int>> out_vars;
  for (const BddRef f : fs) {
    const BitVec s = mgr.support(f);
    std::vector<int> ov;
    for (std::size_t v = s.first_set(); v != BitVec::npos; v = s.next_set(v + 1))
      ov.push_back(static_cast<int>(v));
    out_vars.push_back(std::move(ov));
  }

  // One long-lived manager, pinned inputs, periodic GC.
  for (const BddRef f : fs) mgr.ref(f);
  ResourceGovernor* gov = mgr.governor();
  const std::size_t gc_watermark = mgr.node_count() * 2 + 2048;
  const auto cost = [&](const BitVec& pol) -> std::pair<double, std::size_t> {
    double cubes = 0;
    std::size_t nodes = 0;
    for (std::size_t j = 0; j < fs.size(); ++j) {
      if (out_vars[j].empty()) continue;
      const BddRef spec = rm_spectrum(mgr, fs[j], out_vars[j], pol);
      if (BddManager::is_invalid(spec))
        return {std::numeric_limits<double>::infinity(),
                std::numeric_limits<std::size_t>::max()};
      cubes += fprm_cube_count(mgr, spec, out_vars[j]);
      nodes += mgr.size(spec);
    }
    if (mgr.node_count() > gc_watermark) mgr.gc();
    return {cubes, nodes};
  };
  const auto finish = [&](const BitVec& b) {
    for (const BddRef f : fs) mgr.deref(f);
    return b;
  };
  const auto out_of_budget = [&] { return gov != nullptr && gov->exhausted(); };

  auto best_cost = cost(best);
  if (static_cast<int>(vars.size()) <= opt.exhaustive_limit) {
    const uint64_t total = uint64_t{1} << vars.size();
    for (uint64_t mask = 0; mask < total; ++mask) {
      if (out_of_budget()) break; // keep the best polarity seen so far
      const BitVec pol = polarity_of_mask(vars, mask, mgr.nvars());
      const auto c = cost(pol);
      if (c < best_cost) {
        best_cost = c;
        best = pol;
      }
    }
    return finish(best);
  }
  for (int pass = 0; pass < opt.greedy_passes && !out_of_budget(); ++pass) {
    bool improved = false;
    for (const int v : vars) {
      if (out_of_budget()) break;
      BitVec cand = best;
      cand.flip(static_cast<std::size_t>(v));
      const auto c = cost(cand);
      if (c < best_cost) {
        best_cost = c;
        best = cand;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return finish(best);
}

std::vector<bool> prime_flags(const FprmForm& form) {
  const auto& cs = form.cubes;
  std::vector<bool> prime(cs.size(), true);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (i == j) continue;
      // Properly contained: subset and not equal.
      if (cs[i].is_subset_of(cs[j]) && cs[i] != cs[j]) {
        prime[i] = false;
        break;
      }
    }
  }
  return prime;
}

TruthTable fprm_spectrum_tt(const TruthTable& f, const BitVec& polarity) {
  // For a negative-polarity variable the FPRM expands on x̄, which equals
  // the PPRM of f with that input complemented.
  TruthTable g = f;
  for (int v = 0; v < f.nvars(); ++v) {
    if (!polarity.get(static_cast<std::size_t>(v))) {
      // Swap cofactors of variable v: g(x) := g(x with bit v flipped).
      TruthTable swapped(f.nvars());
      const uint64_t bit = uint64_t{1} << v;
      for (uint64_t m = 0; m < g.size(); ++m)
        if (g.get(m ^ bit)) swapped.set(m);
      g = swapped;
    }
  }
  g.reed_muller_transform();
  return g;
}

TruthTable fprm_to_tt(const FprmForm& form) {
  TruthTable out(form.nvars);
  for (uint64_t m = 0; m < out.size(); ++m) {
    BitVec assign(static_cast<std::size_t>(form.nvars));
    for (int v = 0; v < form.nvars; ++v)
      if ((m >> v) & 1) assign.set(static_cast<std::size_t>(v));
    if (form.eval(assign)) out.set(m);
  }
  return out;
}

} // namespace rmsyn
