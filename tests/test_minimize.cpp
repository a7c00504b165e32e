#include <gtest/gtest.h>

#include <algorithm>

#include "sop/minimize.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

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

TEST(Minimize, SingleCubeContainmentDropsContained) {
  Cover f(3);
  f.add(Cube::parse("1--"));
  f.add(Cube::parse("11-")); // contained in the first
  f.add(Cube::parse("0-1"));
  const Cover r = single_cube_containment(f);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.to_truth_table(), f.to_truth_table());
}

TEST(Minimize, MergeDistanceOneCombines) {
  Cover f(2);
  f.add(Cube::parse("10"));
  f.add(Cube::parse("11"));
  const Cover r = merge_distance_one(f);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.cubes()[0].to_string(), "1-");
}

TEST(Minimize, MergeChainsToSingleCube) {
  // All four minterms of two variables merge to the universal cube.
  Cover f(2);
  f.add(Cube::parse("00"));
  f.add(Cube::parse("01"));
  f.add(Cube::parse("10"));
  f.add(Cube::parse("11"));
  const Cover r = merge_distance_one(f);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.cubes()[0].is_universal());
}

TEST(Minimize, IrredundantRemovesConsensusCube) {
  // ab + āc + bc: the bc cube is redundant.
  Cover f(3);
  f.add(Cube::parse("11-"));
  f.add(Cube::parse("0-1"));
  f.add(Cube::parse("-11"));
  const Cover r = irredundant(f);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.to_truth_table(), f.to_truth_table());
}

TEST(Minimize, ExpandWidensAgainstOffset) {
  // f = ab + āb ≡ b: expansion of either cube should reach "b".
  Cover f(2);
  f.add(Cube::parse("11"));
  f.add(Cube::parse("01"));
  const Cover r = expand(f);
  EXPECT_EQ(r.to_truth_table(), f.to_truth_table());
  EXPECT_LE(r.literal_count(), f.literal_count());
}

// --- Oracles: the original quadratic kernels -------------------------------
//
// single_cube_containment and merge_distance_one must return exactly what
// these did (same cubes, same order), since the baseline's networks depend
// on cube order.

Cover scc_oracle(const Cover& f) {
  const auto& cs = f.cubes();
  std::vector<bool> dead(cs.size(), false);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (cs[i].covers(cs[j])) {
        if (cs[j].covers(cs[i]) && j < i) continue;
        dead[j] = true;
      }
    }
  }
  Cover r(f.nvars());
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (!dead[i]) r.add(cs[i]);
  return r;
}

Cover merge_oracle(const Cover& f) {
  Cover cur = scc_oracle(f);
  bool changed = true;
  while (changed) {
    changed = false;
    auto& cs = cur.cubes();
    for (std::size_t i = 0; i < cs.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < cs.size() && !changed; ++j) {
        if (cs[i].distance(cs[j]) != 1) continue;
        Cube a = cs[i], b = cs[j];
        int clash_var = -1;
        for (int v = 0; v < cur.nvars(); ++v) {
          if ((a.has_pos(v) && b.has_neg(v)) || (a.has_neg(v) && b.has_pos(v))) {
            clash_var = v;
            break;
          }
        }
        a.drop_var(clash_var);
        b.drop_var(clash_var);
        if (a == b) {
          cs[i] = a;
          cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
        }
      }
    }
    if (changed) cur = scc_oracle(cur);
  }
  return cur;
}

// The cofactor by a cube as one whole-cover cofactor per literal.
Cover cofactor_chain_oracle(const Cover& f, const Cube& cube) {
  Cover r = f;
  for (int v = 0; v < f.nvars(); ++v) {
    if (!cube.has_var(v)) continue;
    Cover next(f.nvars());
    for (Cube c : r.cubes())
      if (c.cofactor_inplace(v, cube.has_pos(v))) next.add(std::move(c));
    r = std::move(next);
  }
  return r;
}

// irredundant as it was: gather the other live cubes into `rest`, then
// cofactor `rest` by the candidate cube.
Cover irredundant_oracle(const Cover& f) {
  Cover cur = scc_oracle(f);
  auto order = std::vector<std::size_t>(cur.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cur.cubes()[a].literal_count() > cur.cubes()[b].literal_count();
  });
  std::vector<bool> dead(cur.size(), false);
  for (const std::size_t i : order) {
    Cover rest(cur.nvars());
    for (std::size_t j = 0; j < cur.size(); ++j)
      if (j != i && !dead[j]) rest.add(cur.cubes()[j]);
    if (cofactor_chain_oracle(rest, cur.cubes()[i]).is_tautology_bounded(20000))
      dead[i] = true;
  }
  Cover r(cur.nvars());
  for (std::size_t j = 0; j < cur.size(); ++j)
    if (!dead[j]) r.add(cur.cubes()[j]);
  return r;
}

// Random cover over `nvars` variables whose literals sit on `active` of
// them (spread over every word), with duplicates, nested sub-cubes and
// distance-1 pairs mixed in so every rule of both kernels fires.
Cover tricky_cover(int nvars, int active, int ncubes, Rng& rng) {
  std::vector<int> vars;
  for (int k = 0; k < active; ++k)
    vars.push_back(static_cast<int>((static_cast<uint64_t>(k) * 37) % static_cast<uint64_t>(nvars)));
  const auto random_cube = [&] {
    Cube c(nvars);
    for (const int v : vars) {
      const auto r = rng.below(4);
      if (r == 0) c.add_pos(v);
      else if (r == 1) c.add_neg(v);
    }
    return c;
  };
  Cover f(nvars);
  for (int i = 0; i < ncubes; ++i) {
    if (f.empty()) {
      f.add(random_cube());
      continue;
    }
    const auto kind = rng.below(5);
    const Cube prev = f.cubes()[rng.below(f.size())];
    if (kind == 1) {
      f.add(prev); // duplicate
    } else if (kind == 2) {
      Cube sub = prev; // nested: a sub-cube of an earlier cube
      const int v = vars[rng.below(vars.size())];
      if (!sub.has_var(v)) rng.flip() ? sub.add_pos(v) : sub.add_neg(v);
      f.add(sub);
    } else if (kind == 3) {
      Cube sup = prev; // nested the other way: drop a literal
      sup.drop_var(vars[rng.below(vars.size())]);
      f.add(sup);
    } else if (kind == 4) {
      Cube twin = prev; // distance-1 partner
      const int v = vars[rng.below(vars.size())];
      if (twin.has_pos(v)) twin.add_neg(v);
      else twin.add_pos(v);
      f.add(twin);
    } else {
      f.add(random_cube());
    }
  }
  return f;
}

// The cube-per-minterm cover of a random function: every cube has the same
// literal count (the shape of a flattened cmb cover, scaled down).
Cover minterm_cover(int nvars, Rng& rng) {
  Cover f(nvars);
  for (uint64_t m = 0; m < (uint64_t{1} << nvars); ++m) {
    if (!rng.chance(3, 4)) continue;
    Cube c(nvars);
    for (int v = 0; v < nvars; ++v)
      ((m >> v) & 1) != 0 ? c.add_pos(v) : c.add_neg(v);
    f.add(std::move(c));
    if (rng.chance(1, 8)) f.add(f.cubes().back());
  }
  return f;
}

void expect_same_cubes(const Cover& got, const Cover& want) {
  ASSERT_EQ(got.nvars(), want.nvars());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got.cubes()[i], want.cubes()[i]) << "cube " << i;
}

class MinimizeOracle : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeOracle, ContainmentAndMergeMatchQuadraticOracles) {
  const int nvars = GetParam();
  Rng rng(static_cast<uint64_t>(nvars) * 7919 + 3);
  for (int iter = 0; iter < 40; ++iter) {
    const int active = std::min(nvars, 3 + static_cast<int>(rng.below(10)));
    const Cover f = tricky_cover(nvars, active, 4 + static_cast<int>(rng.below(60)), rng);
    expect_same_cubes(single_cube_containment(f), scc_oracle(f));
    expect_same_cubes(merge_distance_one(f), merge_oracle(f));
  }
}

TEST_P(MinimizeOracle, IrredundantMatchesRestThenCofactorOracle) {
  const int nvars = GetParam();
  Rng rng(static_cast<uint64_t>(nvars) * 104729 + 7);
  for (int iter = 0; iter < 40; ++iter) {
    const int active = std::min(nvars, 3 + static_cast<int>(rng.below(10)));
    const Cover f = tricky_cover(nvars, active, 4 + static_cast<int>(rng.below(40)), rng);
    expect_same_cubes(irredundant(f), irredundant_oracle(f));
    // After a merge pass, consensus-style redundancy is what remains.
    const Cover m = merge_distance_one(f);
    expect_same_cubes(irredundant(m), irredundant_oracle(m));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MinimizeOracle,
                         ::testing::Values(4, 8, 13, 64, 70, 140));

TEST(MinimizeOracle, EqualLiteralMintermCoversMatchOracles) {
  Rng rng(4242);
  for (const int nvars : {3, 5, 7, 8}) {
    const Cover f = minterm_cover(nvars, rng);
    expect_same_cubes(single_cube_containment(f), scc_oracle(f));
    expect_same_cubes(merge_distance_one(f), merge_oracle(f));
  }
}

class MinimizeRandom : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandom, EspressoLitePreservesFunctionAndNeverGrows) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 555 + 5);
  for (int iter = 0; iter < 25; ++iter) {
    const Cover f = random_cover(n, 2 + static_cast<int>(rng.below(10)), rng);
    const Cover g = espresso_lite(f);
    EXPECT_EQ(g.to_truth_table(), f.to_truth_table());
    EXPECT_LE(g.literal_count(), f.literal_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MinimizeRandom, ::testing::Values(2, 3, 4, 5, 6, 7));

} // namespace
} // namespace rmsyn
