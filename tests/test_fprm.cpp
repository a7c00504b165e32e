// FPRM / OFDD tests, including the paper's Figure 1 and the prime-cube
// property of Csanky et al. used in Section 2.
#include "fdd/fprm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/transform.hpp"
#include "util/governor.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

TruthTable random_tt(int n, Rng& rng) {
  TruthTable f(n);
  for (uint64_t m = 0; m < f.size(); ++m)
    if (rng.flip()) f.set(m);
  return f;
}

BddRef tt_to_bdd(BddManager& mgr, const TruthTable& tt) {
  return mgr.from_cover(Cover::from_truth_table(tt));
}

std::vector<int> support_of(BddManager& mgr, BddRef f) {
  std::vector<int> vars;
  const BitVec s = mgr.support(f);
  for (std::size_t v = s.first_set(); v != BitVec::npos; v = s.next_set(v + 1))
    vars.push_back(static_cast<int>(v));
  return vars;
}

BitVec all_positive(const BddManager& mgr) {
  BitVec pol(static_cast<std::size_t>(mgr.nvars()));
  pol.set_all();
  return pol;
}

// The reference search: one rm_spectrum per output and candidate, scored by
// (cube count, BddManager::size), masks in ascending order when the union
// support is at most exhaustive_limit wide, greedy flips in ascending
// variable order above. best_polarity_multi must return what this returns.
BitVec reference_polarity(BddManager& mgr, const std::vector<BddRef>& fs,
                          const PolarityOptions& opt = {}) {
  BitVec sup(static_cast<std::size_t>(mgr.nvars()));
  for (const BddRef f : fs) sup |= mgr.support(f);
  std::vector<int> vars;
  for (std::size_t v = sup.first_set(); v != BitVec::npos; v = sup.next_set(v + 1))
    vars.push_back(static_cast<int>(v));
  BitVec best = all_positive(mgr);
  if (vars.empty()) return best;
  std::vector<std::vector<int>> out_vars;
  for (const BddRef f : fs) out_vars.push_back(support_of(mgr, f));

  for (const BddRef f : fs) mgr.ref(f);
  const std::size_t gc_watermark = mgr.node_count() * 2 + 2048;
  const auto cost = [&](const BitVec& pol) -> std::pair<double, std::size_t> {
    double cubes = 0;
    std::size_t nodes = 0;
    for (std::size_t j = 0; j < fs.size(); ++j) {
      if (out_vars[j].empty()) continue;
      const BddRef spec = rm_spectrum(mgr, fs[j], out_vars[j], pol);
      cubes += fprm_cube_count(mgr, spec, out_vars[j]);
      nodes += mgr.size(spec);
    }
    if (mgr.node_count() > gc_watermark) mgr.gc();
    return {cubes, nodes};
  };
  auto best_cost = cost(best);
  if (static_cast<int>(vars.size()) <= opt.exhaustive_limit) {
    for (uint64_t mask = 0; mask < (uint64_t{1} << vars.size()); ++mask) {
      BitVec pol = all_positive(mgr);
      for (std::size_t i = 0; i < vars.size(); ++i)
        if ((mask >> i) & 1) pol.set(static_cast<std::size_t>(vars[i]), false);
      const auto c = cost(pol);
      if (c < best_cost) {
        best_cost = c;
        best = pol;
      }
    }
  } else {
    for (int pass = 0; pass < opt.greedy_passes; ++pass) {
      bool improved = false;
      for (const int v : vars) {
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
  }
  for (const BddRef f : fs) mgr.deref(f);
  return best;
}

// The polarity with every bit of `mask` over `vars` negative.
BitVec polarity_of(const BddManager& mgr, const std::vector<int>& vars,
                   uint64_t mask) {
  BitVec pol = all_positive(mgr);
  for (std::size_t i = 0; i < vars.size(); ++i)
    if ((mask >> i) & 1) pol.set(static_cast<std::size_t>(vars[i]), false);
  return pol;
}

// The table of rm_spectrum_table against the BDD spectrum: the same
// coefficients under the level-order convention, the same cube count and
// the same node count.
void expect_table_matches_bdd(BddManager& mgr, BddRef f,
                              const std::vector<int>& vars, const BitVec& pol) {
  const BddRef spec = rm_spectrum(mgr, f, vars, pol);
  const TruthTable t = rm_spectrum_table(mgr, f, vars, pol);
  EXPECT_EQ(t.bdd_size(), mgr.size(spec));
  EXPECT_EQ(static_cast<double>(t.count_ones()),
            fprm_cube_count(mgr, spec, vars));
  std::vector<int> ordered = vars;
  std::sort(ordered.begin(), ordered.end(),
            [&](int a, int b) { return mgr.level_of(a) < mgr.level_of(b); });
  const int k = static_cast<int>(vars.size());
  for (uint64_t m = 0; m < t.size(); ++m) {
    BitVec presence(static_cast<std::size_t>(mgr.nvars()));
    for (int i = 0; i < k; ++i)
      if ((m >> i) & 1)
        presence.set(static_cast<std::size_t>(ordered[static_cast<std::size_t>(k - 1 - i)]));
    ASSERT_EQ(t.get(m), mgr.eval(spec, presence)) << "coefficient " << m;
  }
}

// A random function over `n` variables: the XOR of the last four of
// `gates` random two-input gates, so that wide supports stay small as BDDs.
BddRef random_gates(BddManager& mgr, int n, int gates, Rng& rng) {
  std::vector<BddRef> pool;
  for (int v = 0; v < n; ++v) pool.push_back(mgr.var(v));
  for (int v = 0; v + 1 < n; v += 2) // every variable enters a gate
    pool.push_back(mgr.bdd_and(mgr.var(v), mgr.var(v + 1) ^ (rng.flip() ? 1u : 0u)));
  for (int g = 0; g < gates; ++g) {
    // One operand from the newer half grows the supports.
    const std::size_t newer = pool.size() / 2;
    const BddRef a = pool[newer + rng.below(pool.size() - newer)] ^
                     (rng.flip() ? 1u : 0u);
    const BddRef b = pool[rng.below(pool.size())];
    const int op = static_cast<int>(rng.below(3));
    if (op == 0)
      pool.push_back(mgr.bdd_and(a, b));
    else if (op == 1)
      pool.push_back(mgr.bdd_or(a, b));
    else
      pool.push_back(mgr.bdd_xor(a, b));
  }
  BddRef f = mgr.bdd_false();
  for (std::size_t i = pool.size() - 4; i < pool.size(); ++i)
    f = mgr.bdd_xor(f, pool[i]);
  return f;
}

// Sifts a manager away from the identity order: the interleaved pairs of
// (x_i & x_{i+n/2}) want x_i next to x_{i+n/2}. Returns true when some
// variable moved.
bool reorder_away_from_identity(BddManager& mgr) {
  const int n = mgr.nvars();
  BddRef g = mgr.bdd_false();
  for (int i = 0; i < n / 2; ++i)
    g = mgr.bdd_or(g, mgr.bdd_and(mgr.var(i), mgr.var(i + n / 2)));
  mgr.ref(g);
  mgr.reorder();
  mgr.deref(g);
  for (int v = 0; v < n; ++v)
    if (mgr.level_of(v) != v) return true;
  return false;
}

TEST(Fprm, SpectrumOfAndIsSingleCube) {
  BddManager mgr(2);
  const BddRef f = mgr.bdd_and(mgr.var(0), mgr.var(1));
  BitVec pol(2);
  pol.set_all();
  const Ofdd o = build_ofdd(mgr, f, pol);
  const FprmForm form = extract_fprm(mgr, o, 2);
  ASSERT_EQ(form.cube_count(), 1u);
  EXPECT_EQ(form.cubes[0].count(), 2u);
}

TEST(Fprm, Figure1Example) {
  // f = x̄1 ⊕ x̄1x3 ⊕ x̄1x2 ⊕ x̄1x2x3 ⊕ x3 ⊕ x2 with V = (0 1 1):
  // 6 cubes under this polarity. Variables are 0-indexed here: x1->0 etc.
  const int n = 3;
  const auto x = [&](int i) { return TruthTable::variable(n, i); };
  const auto nx1 = ~x(0);
  const TruthTable f = nx1 ^ (nx1 & x(2)) ^ (nx1 & x(1)) ^
                       (nx1 & x(1) & x(2)) ^ x(2) ^ x(1);

  BddManager mgr(n);
  const BddRef fb = tt_to_bdd(mgr, f);
  BitVec pol(3);
  pol.set(1);
  pol.set(2); // V = (0 1 1): x1 negative, x2 x3 positive
  const Ofdd o = build_ofdd(mgr, fb, pol);
  const FprmForm form = extract_fprm(mgr, o, n);
  EXPECT_EQ(form.cube_count(), 6u);
  EXPECT_EQ(fprm_to_tt(form), f);
  // Figure 1 draws one node per variable (3); with complement edges the
  // x2 ⊕ x3 substructure shares a single x3 node between both phases, so
  // our canonical OFDD matches the figure exactly. The x1-present branch
  // covers the first four cubes directly, as in the paper's path
  // description.
  EXPECT_EQ(mgr.size(o.root), 3u);
  const BddRef present_branch = mgr.hi_of(o.root);
  EXPECT_EQ(present_branch, mgr.bdd_true()); // 4 cubes: all (x2,x3) subsets
}

TEST(Fprm, SpectrumMatchesButterflyOracleAllPolarities) {
  const int n = 4;
  Rng rng(42);
  for (int iter = 0; iter < 10; ++iter) {
    const TruthTable f = random_tt(n, rng);
    BddManager mgr(n);
    const BddRef fb = tt_to_bdd(mgr, f);
    for (uint64_t mask = 0; mask < (1u << n); ++mask) {
      BitVec pol(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v)
        if ((mask >> v) & 1) pol.set(static_cast<std::size_t>(v));
      const std::vector<int> vars{0, 1, 2, 3};
      const BddRef spec = rm_spectrum(mgr, fb, vars, pol);
      const TruthTable oracle = fprm_spectrum_tt(f, pol);
      // Compare coefficient by coefficient: spectrum BDD evaluated on the
      // presence assignment == oracle table.
      for (uint64_t s = 0; s < f.size(); ++s) {
        BitVec a(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v)
          if ((s >> v) & 1) a.set(static_cast<std::size_t>(v));
        EXPECT_EQ(mgr.eval(spec, a), oracle.get(s))
            << "polarity " << mask << " coeff " << s;
      }
    }
  }
}

TEST(Fprm, InverseRoundTrip) {
  const int n = 5;
  Rng rng(77);
  BddManager mgr(n);
  const std::vector<int> vars{0, 1, 2, 3, 4};
  for (int iter = 0; iter < 20; ++iter) {
    const TruthTable f = random_tt(n, rng);
    const BddRef fb = tt_to_bdd(mgr, f);
    BitVec pol(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
      if (rng.flip()) pol.set(static_cast<std::size_t>(v));
    const BddRef spec = rm_spectrum(mgr, fb, vars, pol);
    EXPECT_EQ(rm_inverse(mgr, spec, vars, pol), fb);
  }
}

TEST(Fprm, ExtractedFormEvaluatesToFunction) {
  const int n = 5;
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    const TruthTable f = random_tt(n, rng);
    BddManager mgr(n);
    const BddRef fb = tt_to_bdd(mgr, f);
    BitVec pol(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
      if (rng.flip()) pol.set(static_cast<std::size_t>(v));
    const Ofdd o = build_ofdd(mgr, fb, pol);
    const FprmForm form = extract_fprm(mgr, o, n);
    EXPECT_EQ(fprm_to_tt(form), f);
    EXPECT_EQ(static_cast<double>(form.cube_count()),
              fprm_cube_count(mgr, o.root, o.support));
  }
}

TEST(Fprm, CubeCountMatchesSpectrumWeight) {
  // XOR of n variables has exactly n PPRM cubes.
  const int n = 6;
  BddManager mgr(n);
  BddRef f = mgr.bdd_false();
  for (int v = 0; v < n; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  BitVec pol(static_cast<std::size_t>(n));
  pol.set_all();
  const Ofdd o = build_ofdd(mgr, f, pol);
  EXPECT_DOUBLE_EQ(fprm_cube_count(mgr, o.root, o.support), 6.0);
}

TEST(Fprm, BestPolarityNeverWorseThanPositive) {
  const int n = 5;
  Rng rng(1234);
  for (int iter = 0; iter < 15; ++iter) {
    const TruthTable f = random_tt(n, rng);
    BddManager mgr(n);
    const BddRef fb = tt_to_bdd(mgr, f);
    BitVec all_pos(static_cast<std::size_t>(n));
    all_pos.set_all();
    const Ofdd pprm = build_ofdd(mgr, fb, all_pos);
    const double pprm_cubes = fprm_cube_count(mgr, pprm.root, pprm.support);
    const BitVec best = best_polarity(mgr, fb);
    const Ofdd opt = build_ofdd(mgr, fb, best);
    EXPECT_LE(fprm_cube_count(mgr, opt.root, opt.support), pprm_cubes);
  }
}

TEST(Fprm, PrimeCubesInvariantUnderPolarity) {
  // Csanky et al.: every prime cube occurs in all 2^n FPRM forms.
  const int n = 4;
  Rng rng(4321);
  for (int iter = 0; iter < 10; ++iter) {
    const TruthTable f = random_tt(n, rng);
    BddManager mgr(n);
    const BddRef fb = tt_to_bdd(mgr, f);

    // Collect prime-cube support sets of the PPRM.
    BitVec all_pos(static_cast<std::size_t>(n));
    all_pos.set_all();
    const FprmForm pprm = extract_fprm(mgr, build_ofdd(mgr, fb, all_pos), n);
    const auto primes = prime_flags(pprm);
    std::vector<BitVec> prime_supports;
    for (std::size_t i = 0; i < pprm.cubes.size(); ++i)
      if (primes[i]) prime_supports.push_back(pprm.cubes[i]);

    // Support sets are positions into pprm.support; map to variable sets.
    const auto to_varset = [](const FprmForm& form, const BitVec& cube) {
      std::vector<int> vars;
      for (std::size_t i = cube.first_set(); i != BitVec::npos;
           i = cube.next_set(i + 1))
        vars.push_back(form.support[i]);
      return vars;
    };

    for (uint64_t mask = 1; mask < (1u << n); mask += 5) { // sample polarities
      BitVec pol(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v)
        if ((mask >> v) & 1) pol.set(static_cast<std::size_t>(v));
      const FprmForm form = extract_fprm(mgr, build_ofdd(mgr, fb, pol), n);
      for (const auto& pc : prime_supports) {
        const auto want = to_varset(pprm, pc);
        bool found = false;
        for (const auto& cube : form.cubes) {
          if (to_varset(form, cube) == want) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << "prime cube missing under polarity " << mask;
      }
    }
  }
}

TEST(Fprm, MultiOutputPolaritySharedVector) {
  const int n = 4;
  Rng rng(555);
  BddManager mgr(n);
  std::vector<BddRef> fs;
  for (int k = 0; k < 3; ++k) fs.push_back(tt_to_bdd(mgr, random_tt(n, rng)));
  const BitVec pol = best_polarity_multi(mgr, fs);
  EXPECT_EQ(pol.size(), static_cast<std::size_t>(n));
  // Must not be worse than PPRM in total cube count.
  BitVec all_pos(static_cast<std::size_t>(n));
  all_pos.set_all();
  double total_best = 0, total_pprm = 0;
  for (const BddRef f : fs) {
    const Ofdd a = build_ofdd(mgr, f, pol);
    const Ofdd b = build_ofdd(mgr, f, all_pos);
    total_best += fprm_cube_count(mgr, a.root, a.support);
    total_pprm += fprm_cube_count(mgr, b.root, b.support);
  }
  EXPECT_LE(total_best, total_pprm);
}

TEST(Fprm, ConstantOneCubeShowsInForm) {
  // f = 1 ⊕ x0x1 (i.e. NAND): the PPRM contains the constant-1 cube.
  BddManager mgr(2);
  const BddRef f = mgr.bdd_not(mgr.bdd_and(mgr.var(0), mgr.var(1)));
  BitVec pol(2);
  pol.set_all();
  const FprmForm form = extract_fprm(mgr, build_ofdd(mgr, f, pol), 2);
  EXPECT_TRUE(form.has_constant_one_cube());
  EXPECT_EQ(form.cube_count(), 2u);
  EXPECT_EQ(fprm_to_tt(form),
            ~(TruthTable::variable(2, 0) & TruthTable::variable(2, 1)));
}

TEST(Fprm, LiteralCountSumsCubeSizes) {
  FprmForm form;
  form.nvars = 3;
  form.support = {0, 1, 2};
  form.polarity = BitVec(3);
  form.polarity.set_all();
  BitVec a(3), b(3);
  a.set(0);
  b.set(1);
  b.set(2);
  form.cubes = {a, b, BitVec(3)};
  EXPECT_EQ(form.literal_count(), 3u);
  EXPECT_TRUE(form.has_constant_one_cube());
}

TEST(Fprm, SingleVariableAndConstantFunctions) {
  BddManager mgr(3);
  BitVec pol(3);
  pol.set_all();
  // f = x1: one cube {x1}.
  const FprmForm fx = extract_fprm(mgr, build_ofdd(mgr, mgr.var(1), pol), 3);
  EXPECT_EQ(fx.cube_count(), 1u);
  EXPECT_EQ(fx.support, (std::vector<int>{1}));
  // f = x̄1 under positive polarity: 1 ⊕ x1 (two cubes).
  const FprmForm fn = extract_fprm(mgr, build_ofdd(mgr, mgr.nvar(1), pol), 3);
  EXPECT_EQ(fn.cube_count(), 2u);
  // f = x̄1 under negative polarity of x1: a single cube.
  BitVec pneg(3);
  pneg.set_all();
  pneg.set(1, false);
  const FprmForm f1 = extract_fprm(mgr, build_ofdd(mgr, mgr.nvar(1), pneg), 3);
  EXPECT_EQ(f1.cube_count(), 1u);
}

TEST(Fprm, TruncationFlag) {
  BddManager mgr(6);
  BddRef f = mgr.bdd_false();
  for (int v = 0; v < 6; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  BitVec pol(6);
  pol.set_all();
  const Ofdd o = build_ofdd(mgr, f, pol);
  const FprmForm form = extract_fprm(mgr, o, 6, /*cube_limit=*/3);
  EXPECT_TRUE(form.truncated);
  EXPECT_EQ(form.cube_count(), 3u);
}

TEST(Fprm, TableFlipMatchesNegatedSpectrum) {
  // The oracle negates inputs before the butterfly; the search flips the
  // coefficient table instead. Both must agree on every polarity step.
  const int n = 7;
  Rng rng(2024);
  for (int iter = 0; iter < 10; ++iter) {
    const TruthTable f = random_tt(n, rng);
    BitVec pol(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
      if (rng.flip()) pol.set(static_cast<std::size_t>(v));
    for (int v = 0; v < n; ++v) {
      TruthTable flipped = fprm_spectrum_tt(f, pol);
      flipped.rm_flip(v);
      BitVec other = pol;
      other.flip(static_cast<std::size_t>(v));
      EXPECT_EQ(flipped, fprm_spectrum_tt(f, other)) << "variable " << v;
    }
  }
}

TEST(Fprm, RmFlipMatchesRebuiltSpectrum) {
  Rng rng(31337);
  std::size_t widest = 0;
  for (const int n : {6, 13, 20}) {
    BddManager mgr(n);
    for (int round = 0; round < 2; ++round) {
      if (round == 1) {
        ASSERT_TRUE(reorder_away_from_identity(mgr));
      }
      for (int iter = 0; iter < 4; ++iter) {
        const BddRef f = mgr.ref(random_gates(mgr, n, 3 * n, rng));
        const std::vector<int> vars = support_of(mgr, f);
        widest = std::max(widest, vars.size());
        if (vars.empty()) continue;
        BitVec pol(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v)
          if (rng.flip()) pol.set(static_cast<std::size_t>(v));
        const BddRef spec = rm_spectrum(mgr, f, vars, pol);
        for (const int v : vars) {
          BitVec other = pol;
          other.flip(static_cast<std::size_t>(v));
          const BddRef flipped = rm_flip(mgr, spec, v);
          EXPECT_EQ(flipped, rm_spectrum(mgr, f, vars, other))
              << "n=" << n << " round " << round << " variable " << v;
          EXPECT_EQ(rm_flip(mgr, flipped, v), spec); // an involution
        }
        mgr.deref(f);
      }
    }
  }
  EXPECT_GT(widest, 16u); // past the table bound of the search
}

TEST(Fprm, RmFlipReturnsInvalidUnderATrippedGovernor) {
  const int n = 12;
  Rng rng(8);
  BddManager mgr(n);
  const BddRef f = tt_to_bdd(mgr, random_tt(n, rng));
  const std::vector<int> vars = support_of(mgr, f);
  ASSERT_FALSE(vars.empty());
  const BddRef spec = rm_spectrum(mgr, f, vars, all_positive(mgr));
  // The variable on the lowest level makes the flip walk the whole spectrum.
  const int bottom = *std::max_element(vars.begin(), vars.end(), [&](int a, int b) {
    return mgr.level_of(a) < mgr.level_of(b);
  });
  ASSERT_GT(mgr.size(spec), ResourceGovernor::kCheckInterval);

  ResourceLimits lim;
  lim.step_limit = 1; // trips at the first budget check
  ResourceGovernor starving(lim);
  mgr.set_governor(&starving);
  EXPECT_TRUE(BddManager::is_invalid(rm_flip(mgr, spec, bottom)));
  EXPECT_TRUE(starving.exhausted());
  // Once tripped, every flip gives up at its first poll.
  EXPECT_TRUE(BddManager::is_invalid(rm_flip(mgr, spec, vars.front())));
  mgr.set_governor(nullptr);
  EXPECT_FALSE(BddManager::is_invalid(rm_flip(mgr, spec, bottom)));
}

TEST(Fprm, TableNodeCountMatchesBddSizeAfterReorder) {
  const int n = 10;
  Rng rng(606);
  BddManager mgr(n);
  ASSERT_TRUE(reorder_away_from_identity(mgr));
  for (int iter = 0; iter < 4; ++iter) {
    const BddRef f = mgr.ref(tt_to_bdd(mgr, random_tt(n, rng)));
    const std::vector<int> vars = support_of(mgr, f);
    for (int trial = 0; trial < 24; ++trial)
      expect_table_matches_bdd(mgr, f, vars,
                               polarity_of(mgr, vars, rng.below(1u << vars.size())));
    const BddRef g = mgr.ref(random_gates(mgr, n, 12, rng));
    const std::vector<int> gvars = support_of(mgr, g);
    for (uint64_t mask = 0; mask < (uint64_t{1} << gvars.size()); mask += 7)
      expect_table_matches_bdd(mgr, g, gvars, polarity_of(mgr, gvars, mask));
    PolarityOptions wide; // exhaustive over all ten variables
    wide.exhaustive_limit = n;
    EXPECT_EQ(best_polarity(mgr, g, wide), reference_polarity(mgr, {g}, wide));
    EXPECT_EQ(best_polarity(mgr, f), reference_polarity(mgr, {f}));
    EXPECT_EQ(best_polarity_multi(mgr, {f, g}), reference_polarity(mgr, {f, g}));
    mgr.deref(g);
    mgr.deref(f);
  }
}

TEST(Fprm, StepLimitedSearchKeepsTheBestPolaritySoFar) {
  // my_adder's wide outputs take the BDD-spectrum path.
  const Benchmark bench = make_benchmark("my_adder");
  BddManager mgr(static_cast<int>(bench.spec.pi_count()));
  const std::vector<BddRef> fs = output_bdds(mgr, bench.spec);
  const auto total_cubes = [&](const BitVec& pol) {
    double cubes = 0;
    for (const BddRef f : fs) {
      const Ofdd o = build_ofdd(mgr, f, pol);
      cubes += fprm_cube_count(mgr, o.root, o.support);
    }
    return cubes;
  };
  const double pprm = total_cubes(all_positive(mgr));
  for (const uint64_t budget : {uint64_t{1}, uint64_t{2000}, uint64_t{20000}}) {
    ResourceLimits lim;
    lim.step_limit = budget;
    ResourceGovernor gov(lim);
    mgr.set_governor(&gov);
    const BitVec pol = best_polarity_multi(mgr, fs);
    mgr.set_governor(nullptr);
    EXPECT_TRUE(gov.exhausted()) << budget;
    ASSERT_EQ(pol.size(), bench.spec.pi_count());
    EXPECT_LE(total_cubes(pol), pprm) << budget;
  }
}

// Every polarity the flow searches for, on every Table-2 circuit in both
// PI orders, is the reference scan's; and over each exhaustive range the
// table's node count is the spectrum BDD's size.
class PolarityOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(PolarityOracle, SearchMatchesReferenceScan) {
  const Benchmark bench = make_benchmark(GetParam());
  std::vector<std::vector<std::size_t>> orders(1);
  for (std::size_t i = 0; i < bench.spec.pi_count(); ++i) orders[0].push_back(i);
  if (auto h = spectrum_friendly_pi_order(bench.spec); h != orders[0])
    orders.push_back(std::move(h));
  const PolarityOptions opt;
  for (const auto& perm : orders) {
    const Network spec = permute_pis(bench.spec, perm);
    BddManager mgr(static_cast<int>(spec.pi_count()));
    const std::vector<BddRef> fs = output_bdds(mgr, spec);
    for (std::size_t j = 0; j < fs.size(); ++j) {
      const std::vector<int> vars = support_of(mgr, fs[j]);
      if (vars.empty()) continue;
      EXPECT_EQ(best_polarity(mgr, fs[j]), reference_polarity(mgr, {fs[j]}))
          << "output " << j;
      if (static_cast<int>(vars.size()) > opt.exhaustive_limit) continue;
      for (uint64_t mask = 0; mask < (uint64_t{1} << vars.size()); ++mask) {
        const BitVec pol = polarity_of(mgr, vars, mask);
        const BddRef spec_bdd = rm_spectrum(mgr, fs[j], vars, pol);
        const TruthTable t = rm_spectrum_table(mgr, fs[j], vars, pol);
        ASSERT_EQ(t.bdd_size(), mgr.size(spec_bdd))
            << "output " << j << " mask " << mask;
        ASSERT_EQ(static_cast<double>(t.count_ones()),
                  fprm_cube_count(mgr, spec_bdd, vars));
      }
      mgr.gc();
    }
    EXPECT_EQ(best_polarity_multi(mgr, fs), reference_polarity(mgr, fs));
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, PolarityOracle,
                         ::testing::ValuesIn(benchmark_names()));

} // namespace
} // namespace rmsyn
