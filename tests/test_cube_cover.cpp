#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sop/cover.hpp"
#include "sop/cube.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

TEST(Cube, ParseAndToString) {
  const Cube c = Cube::parse("1-0-");
  EXPECT_EQ(c.nvars(), 4);
  EXPECT_TRUE(c.has_pos(0));
  EXPECT_FALSE(c.has_var(1));
  EXPECT_TRUE(c.has_neg(2));
  EXPECT_EQ(c.to_string(), "1-0-");
  EXPECT_EQ(c.literal_count(), 2);
}

TEST(Cube, EvalAgainstMinterms) {
  const Cube c = Cube::parse("1-0");
  EXPECT_TRUE(c.eval(uint64_t{0b001}));  // x0=1 x2=0
  EXPECT_TRUE(c.eval(uint64_t{0b011}));
  EXPECT_FALSE(c.eval(uint64_t{0b000})); // x0=0
  EXPECT_FALSE(c.eval(uint64_t{0b101})); // x2=1
}

TEST(Cube, CoversAndClash) {
  const Cube wide = Cube::parse("1--");
  const Cube narrow = Cube::parse("110");
  EXPECT_TRUE(wide.covers(narrow));
  EXPECT_FALSE(narrow.covers(wide));
  EXPECT_FALSE(wide.clashes(narrow));
  const Cube neg = Cube::parse("0--");
  EXPECT_TRUE(wide.clashes(neg));
  EXPECT_EQ(wide.distance(neg), 1);
}

TEST(Cube, IntersectAndDivide) {
  const Cube a = Cube::parse("1--");
  const Cube b = Cube::parse("-0-");
  const Cube ab = a.intersect(b);
  EXPECT_EQ(ab.to_string(), "10-");
  EXPECT_TRUE(ab.divisible_by(a));
  EXPECT_EQ(ab.divide(a).to_string(), "-0-");
}

TEST(Cube, CofactorInplace) {
  Cube c = Cube::parse("10-");
  EXPECT_TRUE(c.cofactor_inplace(0, true));
  EXPECT_EQ(c.to_string(), "-0-");
  EXPECT_FALSE(c.cofactor_inplace(1, true)); // clashes with the 0 literal
}

TEST(Cover, TautologyBasics) {
  Cover f(2);
  f.add(Cube::parse("1-"));
  EXPECT_FALSE(f.is_tautology());
  f.add(Cube::parse("0-"));
  EXPECT_TRUE(f.is_tautology());
  EXPECT_TRUE(Cover::constant(3, true).is_tautology());
  EXPECT_FALSE(Cover(3).is_tautology());
}

TEST(Cover, CoversCube) {
  Cover f(3);
  f.add(Cube::parse("11-"));
  f.add(Cube::parse("10-"));
  EXPECT_TRUE(f.covers_cube(Cube::parse("1--")));
  EXPECT_FALSE(f.covers_cube(Cube::parse("0--")));
}

class CoverRandom : public ::testing::TestWithParam<int> {};

Cover random_cover(int nvars, int ncubes, Rng& rng) {
  Cover f(nvars);
  for (int c = 0; c < ncubes; ++c) {
    Cube cube(nvars);
    for (int v = 0; v < nvars; ++v) {
      const auto r = rng.below(3);
      if (r == 0) cube.add_pos(v);
      else if (r == 1) cube.add_neg(v);
    }
    f.add(std::move(cube));
  }
  return f;
}

TEST_P(CoverRandom, ComplementMatchesTruthTable) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 1000 + 17);
  for (int iter = 0; iter < 20; ++iter) {
    const Cover f = random_cover(n, 1 + static_cast<int>(rng.below(6)), rng);
    const Cover fc = f.complement();
    const TruthTable tf = f.to_truth_table();
    const TruthTable tfc = fc.to_truth_table();
    EXPECT_EQ(tfc, ~tf);
  }
}

TEST_P(CoverRandom, TautologyMatchesTruthTable) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 2000 + 29);
  for (int iter = 0; iter < 30; ++iter) {
    const Cover f = random_cover(n, 1 + static_cast<int>(rng.below(8)), rng);
    EXPECT_EQ(f.is_tautology(), f.to_truth_table().is_const1());
  }
}

TEST_P(CoverRandom, AndOrMatchTruthTables) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 3000 + 31);
  const Cover f = random_cover(n, 4, rng);
  const Cover g = random_cover(n, 4, rng);
  EXPECT_EQ((f | g).to_truth_table(), f.to_truth_table() | g.to_truth_table());
  EXPECT_EQ((f & g).to_truth_table(), f.to_truth_table() & g.to_truth_table());
}

TEST_P(CoverRandom, CofactorMatchesTruthTable) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 4000 + 37);
  const Cover f = random_cover(n, 5, rng);
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(f.cofactor(v, true).to_truth_table(),
              f.to_truth_table().cofactor(v, true));
    EXPECT_EQ(f.cofactor(v, false).to_truth_table(),
              f.to_truth_table().cofactor(v, false));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CoverRandom, ::testing::Values(2, 3, 4, 5, 6));

TEST(Cover, FromTruthTableRoundTrip) {
  Rng rng(123);
  for (int iter = 0; iter < 10; ++iter) {
    TruthTable f(4);
    for (uint64_t m = 0; m < f.size(); ++m)
      if (rng.flip()) f.set(m);
    EXPECT_EQ(Cover::from_truth_table(f).to_truth_table(), f);
  }
}

TEST(Cover, BoundedTautologyReportsUndecided) {
  // A binate cover large enough to exceed a tiny budget.
  Rng rng(7);
  const Cover f = random_cover(6, 12, rng);
  bool decided = true;
  (void)f.is_tautology_bounded(1, &decided);
  EXPECT_FALSE(decided);
  bool decided2 = false;
  const bool r = f.is_tautology_bounded(1'000'000, &decided2);
  EXPECT_TRUE(decided2);
  EXPECT_EQ(r, f.is_tautology());
}

TEST(Cover, CofactorByNarrowerCubeReadsOnlyItsWords) {
  // A 3-variable cube against a 70-variable cover: the cube has one mask
  // word, the cover's cubes two. Its absent variables carry no literal, so
  // the result is the cofactor by the same cube widened to 70 variables.
  Cover f(70);
  Cube a(70), b(70), c(70), d(70);
  a.add_pos(0); a.add_pos(65);
  b.add_neg(1); b.add_neg(69);
  c.add_pos(2);
  d.add_neg(0); d.add_pos(66);
  for (const Cube& cube : {a, b, c, d}) f.add(cube);
  const Cube narrow = Cube::parse("1-1");
  Cube wide = narrow;
  wide.resize_vars(70);

  const Cover got = f.cofactor(narrow);
  const Cover want = f.cofactor(wide);
  ASSERT_EQ(got.nvars(), 70);
  ASSERT_EQ(got.size(), 3u); // d clashes on x0
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got.cubes()[i], want.cubes()[i]) << "cube " << i;
  EXPECT_EQ(f.covers_cube(narrow), f.covers_cube(wide));
  EXPECT_TRUE(f.covers_cube(Cube::parse("--1")));
  EXPECT_FALSE(f.covers_cube(Cube::parse("0--")));
}

// --- Oracles: the per-variable kernels the cover algebra replaced ----------
//
// cofactor(cube), most_binate_var and complement must return exactly what
// these did (same cubes, same order): the baseline's networks depend on
// cube order.

// Copies the whole cover, then drops the cubes that vanish.
Cover cofactor_var_oracle(const Cover& f, int v, bool value) {
  Cover r(f.nvars());
  for (Cube c : f.cubes())
    if (c.cofactor_inplace(v, value)) r.add(std::move(c));
  return r;
}

// One whole-cover cofactor per literal of the cube.
Cover cofactor_chain_oracle(const Cover& f, const Cube& cube) {
  Cover r = f;
  for (int v = 0; v < f.nvars(); ++v) {
    if (cube.has_pos(v)) r = cofactor_var_oracle(r, v, true);
    else if (cube.has_neg(v)) r = cofactor_var_oracle(r, v, false);
  }
  return r;
}

// Two n-sized count vectors, scanned over every variable.
int most_binate_oracle(const Cover& f) {
  const int n = f.nvars();
  std::vector<int> pos_cnt(static_cast<std::size_t>(n), 0);
  std::vector<int> neg_cnt(static_cast<std::size_t>(n), 0);
  for (const auto& c : f.cubes()) {
    for (int v = 0; v < n; ++v) {
      if (c.has_pos(v)) ++pos_cnt[static_cast<std::size_t>(v)];
      if (c.has_neg(v)) ++neg_cnt[static_cast<std::size_t>(v)];
    }
  }
  int best = -1, best_score = -1;
  for (int v = 0; v < n; ++v) {
    const auto iv = static_cast<std::size_t>(v);
    if (pos_cnt[iv] > 0 && neg_cnt[iv] > 0 &&
        pos_cnt[iv] + neg_cnt[iv] > best_score) {
      best_score = pos_cnt[iv] + neg_cnt[iv];
      best = v;
    }
  }
  return best;
}

// Shannon complement with the dense split choice and a De Morgan leaf that
// visits every variable.
Cover complement_oracle(const Cover& f) {
  const int n = f.nvars();
  if (f.empty()) return Cover::constant(n, true);
  if (f.has_universal_cube()) return Cover(n);
  if (f.size() == 1) {
    Cover r(n);
    const Cube& c = f.cubes()[0];
    for (int v = 0; v < n; ++v) {
      if (!c.has_var(v)) continue;
      Cube lit(n);
      if (c.has_pos(v)) lit.add_neg(v); else lit.add_pos(v);
      r.add(std::move(lit));
    }
    return r;
  }
  int v = most_binate_oracle(f);
  // Unate: the first cube's lowest variable.
  for (std::size_t i = 0; v < 0 && i < f.size(); ++i)
    for (int u = 0; v < 0 && u < n; ++u)
      if (f.cubes()[i].has_var(u)) v = u;
  const Cover c0 = complement_oracle(cofactor_var_oracle(f, v, false));
  const Cover c1 = complement_oracle(cofactor_var_oracle(f, v, true));
  Cover r(n);
  for (Cube c : c0.cubes()) {
    if (!c.has_var(v)) c.add_neg(v);
    r.add(std::move(c));
  }
  for (Cube c : c1.cubes()) {
    if (!c.has_var(v)) c.add_pos(v);
    r.add(std::move(c));
  }
  return r;
}

// A random cube whose literals sit on `vars`, each with probability `pct`%.
Cube sparse_cube(int nvars, const std::vector<int>& vars, uint64_t pct, Rng& rng) {
  Cube c(nvars);
  for (const int v : vars) {
    if (rng.below(100) >= pct) continue;
    if (rng.flip()) c.add_pos(v); else c.add_neg(v);
  }
  return c;
}

void expect_same_cubes(const Cover& got, const Cover& want) {
  ASSERT_EQ(got.nvars(), want.nvars());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got.cubes()[i], want.cubes()[i]) << "cube " << i;
}

class CoverOracle : public ::testing::TestWithParam<int> {};

TEST_P(CoverOracle, CofactorSplitAndComplementMatchPerVariableOracles) {
  const int nvars = GetParam();
  Rng rng(static_cast<uint64_t>(nvars) * 6271 + 11);
  for (int iter = 0; iter < 40; ++iter) {
    // Literals on up to 12 variables spread over every mask word.
    std::vector<int> vars;
    const int active = std::min(nvars, 3 + static_cast<int>(rng.below(10)));
    for (int k = 0; k < active; ++k)
      vars.push_back(static_cast<int>((static_cast<uint64_t>(k) * 37) %
                                      static_cast<uint64_t>(nvars)));
    Cover f(nvars);
    const auto ncubes = 1 + rng.below(14);
    for (uint64_t i = 0; i < ncubes; ++i) f.add(sparse_cube(nvars, vars, 50, rng));

    const Cube by = sparse_cube(nvars, vars, 25, rng);
    const Cover co = f.cofactor(by);
    expect_same_cubes(co, cofactor_chain_oracle(f, by));
    EXPECT_EQ(f.covers_cube(by), cofactor_chain_oracle(f, by).is_tautology());
    EXPECT_EQ(f.most_binate_var(), most_binate_oracle(f));
    EXPECT_EQ(co.most_binate_var(), most_binate_oracle(co));
    for (const int v : vars)
      for (const bool value : {false, true})
        expect_same_cubes(f.cofactor(v, value), cofactor_var_oracle(f, v, value));
    expect_same_cubes(f.complement(), complement_oracle(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CoverOracle, ::testing::Values(8, 70, 140));

} // namespace
} // namespace rmsyn
