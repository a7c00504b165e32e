#include "tt/truth_table.hpp"

#include <algorithm>
#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace rmsyn {
namespace {

TEST(TruthTable, ConstantsAndVariables) {
  const auto zero = TruthTable::constant(3, false);
  const auto one = TruthTable::constant(3, true);
  EXPECT_TRUE(zero.is_const0());
  EXPECT_TRUE(one.is_const1());
  const auto x1 = TruthTable::variable(3, 1);
  EXPECT_EQ(x1.count_ones(), 4u);
  EXPECT_FALSE(x1.get(0b000));
  EXPECT_TRUE(x1.get(0b010));
}

TEST(TruthTable, BooleanOps) {
  const auto a = TruthTable::variable(2, 0);
  const auto b = TruthTable::variable(2, 1);
  const auto axb = a ^ b;
  EXPECT_FALSE(axb.get(0b00));
  EXPECT_TRUE(axb.get(0b01));
  EXPECT_TRUE(axb.get(0b10));
  EXPECT_FALSE(axb.get(0b11));
  EXPECT_EQ((a & b).count_ones(), 1u);
  EXPECT_EQ((a | b).count_ones(), 3u);
  EXPECT_EQ((~a).count_ones(), 2u);
}

TEST(TruthTable, CofactorAndSupport) {
  // f = x0 ⊕ x1x2
  const auto f = TruthTable::variable(3, 0) ^
                 (TruthTable::variable(3, 1) & TruthTable::variable(3, 2));
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_TRUE(f.depends_on(1));
  EXPECT_TRUE(f.depends_on(2));
  const auto f1 = f.cofactor(1, false); // x1=0: f = x0
  EXPECT_EQ(f1, TruthTable::variable(3, 0));
  EXPECT_EQ(f.support(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(f1.support(), (std::vector<int>{0}));
}

TEST(TruthTable, ReedMullerOfKnownFunctions) {
  // PPRM of AND is the single coefficient x0x1.
  const auto andf = TruthTable::variable(2, 0) & TruthTable::variable(2, 1);
  auto spec = andf.pprm_spectrum();
  EXPECT_EQ(spec.count_ones(), 1u);
  EXPECT_TRUE(spec.get(0b11));

  // PPRM of OR = x0 ⊕ x1 ⊕ x0x1.
  const auto orf = TruthTable::variable(2, 0) | TruthTable::variable(2, 1);
  spec = orf.pprm_spectrum();
  EXPECT_EQ(spec.count_ones(), 3u);
  EXPECT_TRUE(spec.get(0b01));
  EXPECT_TRUE(spec.get(0b10));
  EXPECT_TRUE(spec.get(0b11));
  EXPECT_FALSE(spec.get(0b00));

  // XOR has exactly the two linear coefficients.
  const auto xorf = TruthTable::variable(2, 0) ^ TruthTable::variable(2, 1);
  spec = xorf.pprm_spectrum();
  EXPECT_EQ(spec.count_ones(), 2u);
}

class TTRandom : public ::testing::TestWithParam<int> {};

TEST_P(TTRandom, ReedMullerTransformIsAnInvolution) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 97 + 1);
  TruthTable f(n);
  for (uint64_t m = 0; m < f.size(); ++m)
    if (rng.flip()) f.set(m);
  TruthTable g = f;
  g.reed_muller_transform();
  g.reed_muller_transform();
  EXPECT_EQ(f, g);
}

TEST_P(TTRandom, SpectrumEvaluatesBackToFunction) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 131 + 7);
  TruthTable f(n);
  for (uint64_t m = 0; m < f.size(); ++m)
    if (rng.flip()) f.set(m);
  const TruthTable spec = f.pprm_spectrum();
  // f(x) = XOR over S subseteq x (bitwise) of spec(S).
  for (uint64_t x = 0; x < f.size(); ++x) {
    bool acc = false;
    for (uint64_t s = 0; s < f.size(); ++s)
      if ((s & ~x) == 0 && spec.get(s)) acc = !acc;
    EXPECT_EQ(acc, f.get(x)) << "minterm " << x;
  }
}

TEST_P(TTRandom, RmFlipFoldsTheOneCofactorIntoTheZeroCofactor) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 53 + 3);
  TruthTable f(n);
  for (uint64_t m = 0; m < f.size(); ++m)
    if (rng.flip()) f.set(m);
  for (int v = 0; v < n; ++v) {
    TruthTable g = f;
    g.rm_flip(v);
    EXPECT_EQ(g.cofactor(v, true), f.cofactor(v, true)) << "variable " << v;
    EXPECT_EQ(g.cofactor(v, false), f.cofactor(v, false) ^ f.cofactor(v, true))
        << "variable " << v;
    g.rm_flip(v);
    EXPECT_EQ(g, f) << "variable " << v; // an involution
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TTRandom, ::testing::Values(1, 2, 3, 4, 5, 6, 8));

TEST(TruthTable, BddSizeOfKnownFunctions) {
  for (const int n : {1, 3, 6, 7, 9}) {
    EXPECT_EQ(TruthTable::constant(n, false).bdd_size(), 0u);
    EXPECT_EQ(TruthTable::constant(n, true).bdd_size(), 0u);
    EXPECT_EQ(TruthTable::variable(n, 0).bdd_size(), 1u);
    EXPECT_EQ((~TruthTable::variable(n, n - 1)).bdd_size(), 1u);
    TruthTable parity = TruthTable::constant(n, false);
    TruthTable conj = TruthTable::constant(n, true);
    for (int v = 0; v < n; ++v) {
      parity = parity ^ TruthTable::variable(n, v);
      conj = conj & TruthTable::variable(n, v);
    }
    // Complement edges: parity and its complement share one node per level.
    EXPECT_EQ(parity.bdd_size(), static_cast<std::size_t>(n)) << n;
    EXPECT_EQ(conj.bdd_size(), static_cast<std::size_t>(n)) << n;
  }
  // x2 ? x0 : x1 with x2 on top: one node per variable.
  const auto x = [](int i) { return TruthTable::variable(3, i); };
  EXPECT_EQ(((x(2) & x(0)) | (~x(2) & x(1))).bdd_size(), 3u);
}

TruthTable table_from_bits(int nvars, uint64_t bits) {
  TruthTable f(nvars);
  for (uint64_t m = 0; m < f.size(); ++m)
    if ((bits >> m) & 1) f.set(m);
  return f;
}

TEST(TruthTable, PermuteInputsExhaustive3) {
  // g = f.permute_inputs(perm) must satisfy g(y) = f(x), x_i = y_{perm[i]},
  // for ALL 256 3-variable functions and all 6 permutations.
  std::vector<int> perm = {0, 1, 2};
  do {
    for (unsigned bits = 0; bits < 256; ++bits) {
      const TruthTable f = table_from_bits(3, bits);
      const TruthTable g = f.permute_inputs(perm);
      for (uint64_t y = 0; y < 8; ++y) {
        uint64_t x = 0;
        for (int i = 0; i < 3; ++i)
          if ((y >> perm[i]) & 1) x |= uint64_t{1} << i;
        EXPECT_EQ(g.get(y), f.get(x));
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(TruthTable, PermuteInverseRoundTrips) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    TruthTable f(4);
    for (uint64_t m = 0; m < f.size(); ++m)
      if (rng.flip()) f.set(m);
    std::vector<int> perm = {0, 1, 2, 3};
    for (int i = 3; i > 0; --i)
      std::swap(perm[i], perm[rng.below(static_cast<uint64_t>(i) + 1)]);
    std::vector<int> inv(4);
    for (int i = 0; i < 4; ++i) inv[perm[i]] = i;
    EXPECT_EQ(f.permute_inputs(perm).permute_inputs(inv), f);
  }
}

TEST(TruthTable, NegateInputsExhaustive3) {
  // g = f.negate_inputs(mask) must satisfy g(y) = f(y ^ mask), for all 256
  // functions and all 8 masks; negate_input(v) is the single-bit case.
  for (unsigned bits = 0; bits < 256; ++bits) {
    const TruthTable f = table_from_bits(3, bits);
    for (uint64_t mask = 0; mask < 8; ++mask) {
      const TruthTable g = f.negate_inputs(mask);
      for (uint64_t y = 0; y < 8; ++y) EXPECT_EQ(g.get(y), f.get(y ^ mask));
    }
    for (int v = 0; v < 3; ++v)
      EXPECT_EQ(f.negate_input(v), f.negate_inputs(uint64_t{1} << v));
  }
}

TEST(TruthTable, ShrinkToSupportExhaustive3) {
  // Shrinking projects onto the true support: new variable j is fed from
  // old variable support()[j], checked by re-evaluating every minterm.
  for (unsigned bits = 0; bits < 256; ++bits) {
    const TruthTable f = table_from_bits(3, bits);
    const std::vector<int> sup = f.support();
    const TruthTable h = f.shrink_to_support();
    EXPECT_EQ(h.nvars(), static_cast<int>(sup.size()));
    for (uint64_t m = 0; m < 8; ++m) {
      uint64_t packed = 0;
      for (std::size_t j = 0; j < sup.size(); ++j)
        if ((m >> sup[j]) & 1) packed |= uint64_t{1} << j;
      EXPECT_EQ(f.get(m), h.get(packed)) << "bits=" << bits << " m=" << m;
    }
  }
}

TEST(TruthTable, ExtendAddsIrrelevantVariables) {
  for (unsigned bits = 0; bits < 16; ++bits) {
    const TruthTable f = table_from_bits(2, bits);
    const TruthTable g = f.extend(4);
    EXPECT_EQ(g.nvars(), 4);
    for (uint64_t m = 0; m < 16; ++m) EXPECT_EQ(g.get(m), f.get(m & 3));
    EXPECT_FALSE(g.depends_on(2));
    EXPECT_FALSE(g.depends_on(3));
    // Shrinking away the padding vars and re-extending restores g — but
    // only when the support is a variable prefix, because shrink compacts
    // support vars down to the low positions (f = x1 shrinks to x0).
    const TruthTable h = g.shrink_to_support();
    EXPECT_LE(h.nvars(), 2);
    if (f.depends_on(0) || !f.depends_on(1)) EXPECT_EQ(h.extend(4), g);
  }
}

} // namespace
} // namespace rmsyn
