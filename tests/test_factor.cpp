// Section 3 tests: both factorization methods build networks equivalent to
// the FPRM form, and the Reduction-rule shapes (a) and (b) produce the
// expected gate structures.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/factor_cubes.hpp"
#include "core/factor_ofdd.hpp"
#include "core/xor_expr.hpp"
#include "equiv/equiv.hpp"
#include "network/simulate.hpp"
#include "network/stats.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

TruthTable random_tt(int n, Rng& rng) {
  TruthTable f(n);
  for (uint64_t m = 0; m < f.size(); ++m)
    if (rng.flip()) f.set(m);
  return f;
}

struct Built {
  Network net;
};

Built build_with(const TruthTable& f, const BitVec& pol, bool use_cubes) {
  BddManager mgr(f.nvars());
  const BddRef fb = mgr.from_cover(Cover::from_truth_table(f));
  const Ofdd o = build_ofdd(mgr, fb, pol);
  Built b;
  std::vector<NodeId> pis;
  for (int v = 0; v < f.nvars(); ++v) pis.push_back(b.net.add_pi());
  NodeId root;
  if (use_cubes) {
    const FprmForm form = extract_fprm(mgr, o, f.nvars());
    root = factor_cubes(b.net, pis, form);
  } else {
    root = factor_ofdd(b.net, pis, mgr, o);
  }
  b.net.add_po(root);
  return b;
}

class FactorRandom
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, bool>> {};

TEST_P(FactorRandom, BuildsEquivalentNetwork) {
  const auto [n, seed, use_cubes] = GetParam();
  Rng rng(seed);
  for (int iter = 0; iter < 8; ++iter) {
    const TruthTable f = random_tt(n, rng);
    BitVec pol(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
      if (rng.flip()) pol.set(static_cast<std::size_t>(v));
    const Built b = build_with(f, pol, use_cubes);
    const auto r = check_against_tts(b.net, {f});
    EXPECT_TRUE(r.equivalent) << r.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FactorRandom,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6), ::testing::Values(11, 22),
                       ::testing::Bool()));

TEST(FactorCubes, RuleA_ProducesAndNotInsteadOfXor) {
  // f = a ⊕ ab = a·b̄ — one AND and one inverter, no XOR.
  Network net;
  std::vector<NodeId> pis{net.add_pi(), net.add_pi()};
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  BitVec c1(2);
  c1.set(0); // a
  BitVec c2(2);
  c2.set(0);
  c2.set(1); // ab
  form.cubes = {c1, c2};
  net.add_po(factor_cubes(net, pis, form));
  const auto s = network_stats(net);
  EXPECT_EQ(s.num_xor2, 0u);
  EXPECT_EQ(s.gates2, 1u);
  // And the function is right: a AND NOT b.
  const auto tt = TruthTable::variable(2, 0) & ~TruthTable::variable(2, 1);
  EXPECT_TRUE(check_against_tts(net, {tt}).equivalent);
}

TEST(FactorCubes, RuleB_ProducesOr) {
  // f = a ⊕ b ⊕ ab = a + b.
  Network net;
  std::vector<NodeId> pis{net.add_pi(), net.add_pi()};
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  BitVec a(2), b(2), ab(2);
  a.set(0);
  b.set(1);
  ab.set(0);
  ab.set(1);
  form.cubes = {a, b, ab};
  net.add_po(factor_cubes(net, pis, form));
  const auto s = network_stats(net);
  EXPECT_EQ(s.num_xor2, 0u);
  EXPECT_EQ(s.gates2, 1u);
  const auto tt = TruthTable::variable(2, 0) | TruthTable::variable(2, 1);
  EXPECT_TRUE(check_against_tts(net, {tt}).equivalent);
}

TEST(FactorCubes, DisjointGroupsJoinedByXorTree) {
  // f = ab ⊕ cd: two disjoint groups.
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 4; ++i) pis.push_back(net.add_pi());
  FprmForm form;
  form.nvars = 4;
  form.support = {0, 1, 2, 3};
  form.polarity = BitVec(4);
  form.polarity.set_all();
  BitVec ab(4), cd(4);
  ab.set(0);
  ab.set(1);
  cd.set(2);
  cd.set(3);
  form.cubes = {ab, cd};
  net.add_po(factor_cubes(net, pis, form));
  const auto s = network_stats(net);
  EXPECT_EQ(s.num_xor2, 1u);
  EXPECT_EQ(s.gates2, 5u); // 2 ANDs + XOR(3)
}

TEST(FactorCubes, DuplicateCubesCancel) {
  Network net;
  std::vector<NodeId> pis{net.add_pi(), net.add_pi()};
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  BitVec ab(2);
  ab.set(0);
  ab.set(1);
  form.cubes = {ab, ab}; // C ⊕ C = 0
  const NodeId root = factor_cubes(net, pis, form);
  EXPECT_EQ(root, Network::kConst0);
}

TEST(FactorOfdd, NegativePolarityLiteralsAreInverted) {
  // f with all-negative polarity: f = x̄0·x̄1 (single cube).
  const TruthTable f = ~TruthTable::variable(2, 0) & ~TruthTable::variable(2, 1);
  BitVec pol(2); // all negative
  const Built b = build_with(f, pol, /*use_cubes=*/false);
  EXPECT_TRUE(check_against_tts(b.net, {f}).equivalent);
  EXPECT_EQ(network_stats(b.net).num_xor2, 0u);
}

TEST(SharedOfdd, CrossOutputSharingOnAdder) {
  // A 4-bit adder built per-output with the shared builder must be much
  // smaller than the sum of independent per-output constructions, because
  // the carry spectra are shared.
  const int nbits = 4;
  const int n = 2 * nbits; // a,b interleaved per bit, no carry-in
  BddManager mgr(n);
  // MSB-first order benefits sharing (reach-heuristic order); construct
  // directly in that order: var 2k = a_{nbits-1-k}, var 2k+1 = b_...
  std::vector<BddRef> sums;
  {
    // Build with BDD arithmetic: carries LSB-up. LSB vars are the last.
    std::vector<BddRef> av(nbits), bv(nbits);
    for (int k = 0; k < nbits; ++k) {
      av[static_cast<std::size_t>(k)] = mgr.var(2 * (nbits - 1 - k));
      bv[static_cast<std::size_t>(k)] = mgr.var(2 * (nbits - 1 - k) + 1);
    }
    BddRef carry = mgr.bdd_false();
    for (int k = 0; k < nbits; ++k) {
      const BddRef a = av[static_cast<std::size_t>(k)];
      const BddRef b = bv[static_cast<std::size_t>(k)];
      sums.push_back(mgr.bdd_xor(mgr.bdd_xor(a, b), carry));
      carry = mgr.bdd_or(mgr.bdd_and(a, b),
                         mgr.bdd_and(carry, mgr.bdd_xor(a, b)));
    }
    sums.push_back(carry);
  }
  BitVec pol(static_cast<std::size_t>(n));
  pol.set_all();
  std::vector<int> all_vars;
  for (int v = 0; v < n; ++v) all_vars.push_back(v);

  Network shared_net;
  std::vector<NodeId> pis;
  for (int v = 0; v < n; ++v) pis.push_back(shared_net.add_pi());
  SharedOfddBuilder builder(shared_net, pis, mgr, pol);
  for (const BddRef s : sums)
    shared_net.add_po(builder.build(rm_spectrum(mgr, s, all_vars, pol)));

  Network indep_net;
  std::vector<NodeId> pis2;
  for (int v = 0; v < n; ++v) pis2.push_back(indep_net.add_pi());
  for (const BddRef s : sums)
    indep_net.add_po(factor_ofdd(indep_net, pis2, mgr, build_ofdd(mgr, s, pol)));

  EXPECT_TRUE(check_equivalence(shared_net, indep_net).equivalent);
  EXPECT_LT(network_stats(shared_net).gates2,
            network_stats(indep_net).gates2);
}

TEST(XorExpr, GroupByDisjointSupport) {
  // One mask word per cube: {0,1}, {1,2} (connects to the first), {4},
  // the constant-1 cube, {5}.
  const std::vector<uint64_t> cubes{0b11, 0b110, 0b10000, 0, 0b100000};
  std::vector<uint32_t> group_of;
  EXPECT_EQ(group_by_disjoint_support(cubes.data(), cubes.size(), 1, group_of), 4u);
  EXPECT_EQ(group_of, (std::vector<uint32_t>{0, 0, 1, 2, 3}));
}

TEST(XorExpr, GroupByDisjointSupportAcrossWords) {
  // Two words per cube: {3,70} and {70,100} join through position 70, {64}
  // stays apart, and {5} joins the first group only through the last cube
  // {3,5}, after both groups were formed.
  const std::vector<std::vector<std::size_t>> lits{
      {3, 70}, {64}, {70, 100}, {5}, {3, 5}};
  std::vector<uint64_t> cubes(lits.size() * 2, 0);
  for (std::size_t i = 0; i < lits.size(); ++i)
    for (const std::size_t b : lits[i]) cubes[i * 2 + b / 64] |= uint64_t{1} << (b % 64);
  std::vector<uint32_t> group_of;
  EXPECT_EQ(group_by_disjoint_support(cubes.data(), lits.size(), 2, group_of), 2u);
  EXPECT_EQ(group_of, (std::vector<uint32_t>{0, 1, 0, 0, 0}));
}

// --- Oracle: the original BitVec cube factorizer ---------------------------
//
// factor_cubes must build exactly the network this did (same gates in the
// same order) at any mask stride.
class OracleFactorizer {
public:
  explicit OracleFactorizer(LiteralContext& ctx) : ctx_(ctx) {}

  NodeId factor(std::vector<BitVec> cubes) {
    std::sort(cubes.begin(), cubes.end());
    std::vector<BitVec> kept;
    for (std::size_t i = 0; i < cubes.size();) {
      if (i + 1 < cubes.size() && cubes[i] == cubes[i + 1]) i += 2;
      else kept.push_back(cubes[i++]);
    }
    return factor_nodup(std::move(kept));
  }

private:
  Network& net() { return ctx_.net(); }

  static std::vector<std::vector<std::size_t>> groups_of(const std::vector<BitVec>& cubes) {
    std::vector<std::size_t> parent(cubes.size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    const auto find = [&](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    std::vector<std::size_t> owner(cubes[0].size(), BitVec::npos);
    for (std::size_t i = 0; i < cubes.size(); ++i)
      for (std::size_t b = cubes[i].first_set(); b != BitVec::npos; b = cubes[i].next_set(b + 1)) {
        if (owner[b] == BitVec::npos) owner[b] = i;
        else parent[find(i)] = find(owner[b]);
      }
    std::vector<std::vector<std::size_t>> groups;
    std::vector<std::size_t> root_to_group(cubes.size(), BitVec::npos);
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      const std::size_t r = find(i);
      if (root_to_group[r] == BitVec::npos) {
        root_to_group[r] = groups.size();
        groups.emplace_back();
      }
      groups[root_to_group[r]].push_back(i);
    }
    return groups;
  }

  NodeId factor_nodup(std::vector<BitVec> cubes) {
    if (cubes.empty()) return Network::kConst0;
    if (cubes.size() == 1) return ctx_.build_cube(cubes[0]);
    if (cubes.size() == 3) {
      for (std::size_t top = 0; top < 3; ++top) {
        const BitVec& u = cubes[top];
        const BitVec& a = cubes[(top + 1) % 3];
        const BitVec& b = cubes[(top + 2) % 3];
        if ((a | b) == u && a != u && b != u)
          return net().add_or(ctx_.build_cube(a), ctx_.build_cube(b));
      }
    }
    const auto groups = groups_of(cubes);
    if (groups.size() > 1) {
      std::vector<NodeId> parts;
      for (const auto& g : groups) {
        std::vector<BitVec> sub;
        for (const std::size_t i : g) sub.push_back(cubes[i]);
        parts.push_back(factor_nodup(std::move(sub)));
      }
      return balanced_gate_tree(net(), GateType::Xor, std::move(parts));
    }
    const std::size_t width = cubes[0].size();
    std::vector<std::size_t> occur(width, 0);
    for (const auto& c : cubes)
      for (std::size_t b = c.first_set(); b != BitVec::npos; b = c.next_set(b + 1)) ++occur[b];
    std::size_t best_lit = BitVec::npos, best_count = 1;
    for (std::size_t b = 0; b < width; ++b)
      if (occur[b] > best_count) {
        best_count = occur[b];
        best_lit = b;
      }
    if (best_lit == BitVec::npos) {
      std::vector<NodeId> leaves;
      for (const auto& c : cubes) leaves.push_back(ctx_.build_cube(c));
      return balanced_gate_tree(net(), GateType::Xor, std::move(leaves));
    }
    std::vector<BitVec> quotient, remainder;
    bool quotient_has_one = false;
    for (auto& c : cubes) {
      if (c.get(best_lit)) {
        BitVec q = c;
        q.set(best_lit, false);
        if (q.none()) quotient_has_one = true;
        else quotient.push_back(std::move(q));
      } else {
        remainder.push_back(std::move(c));
      }
    }
    const NodeId lit = ctx_.literal(best_lit);
    NodeId factored;
    if (quotient_has_one) {
      factored = quotient.empty()
                     ? lit
                     : net().add_and(lit, net().add_not(factor_nodup(std::move(quotient))));
    } else {
      const NodeId q = factor_nodup(std::move(quotient));
      factored = q == Network::kConst1 ? lit : net().add_and(lit, q);
    }
    if (remainder.empty()) return factored;
    const NodeId rest = factor_nodup(std::move(remainder));
    return net().add_xor(factored, rest);
  }

  LiteralContext& ctx_;
};

// A random FPRM form over `width` support positions spread across the
// global inputs, with shared literals (so the literal rule fires), disjoint
// groups, a duplicate pair, a rule-(b) triple and the constant-1 cube.
FprmForm random_wide_form(std::size_t width, Rng& rng) {
  FprmForm form;
  form.nvars = static_cast<int>(width) + 2;
  for (std::size_t i = 0; i < width; ++i) form.support.push_back(static_cast<int>(i) + 1);
  form.polarity = BitVec(static_cast<std::size_t>(form.nvars));
  for (int v = 0; v < form.nvars; ++v)
    if (rng.flip()) form.polarity.set(static_cast<std::size_t>(v));
  const auto random_cube = [&] {
    BitVec c(width);
    const std::size_t lits = 1 + rng.below(std::min<std::size_t>(width, 5));
    for (std::size_t k = 0; k < lits; ++k) {
      // Half the literals come from a few hot positions (one per word).
      const std::size_t b = rng.flip() ? (rng.below(3) * 64 + 7) % width : rng.below(width);
      c.set(b);
    }
    return c;
  };
  for (int i = 0; i < 24; ++i) form.cubes.push_back(random_cube());
  form.cubes.push_back(form.cubes[3]); // duplicate pair cancels
  form.cubes.push_back(BitVec(width)); // constant 1
  return form;
}

std::vector<FprmForm> rule_b_forms(std::size_t width) {
  // {B, C, B∪C} alone, with B and C at the two ends of the support.
  FprmForm form;
  form.nvars = static_cast<int>(width);
  for (std::size_t i = 0; i < width; ++i) form.support.push_back(static_cast<int>(i));
  form.polarity = BitVec(width);
  form.polarity.set_all();
  BitVec b(width), c(width);
  b.set(0);
  c.set(width - 1);
  form.cubes = {b, c, b | c};
  return {form};
}

class FactorCubesWide : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactorCubesWide, MatchesEvalAndOracleNetwork) {
  const std::size_t width = GetParam();
  Rng rng(width * 131 + 9);
  std::vector<FprmForm> forms = width > 1 ? rule_b_forms(width) : std::vector<FprmForm>{};
  for (int iter = 0; iter < 12; ++iter) forms.push_back(random_wide_form(width, rng));
  for (const FprmForm& form : forms) {
    Network net, oracle_net;
    std::vector<NodeId> pis, oracle_pis;
    for (int v = 0; v < form.nvars; ++v) {
      pis.push_back(net.add_pi());
      oracle_pis.push_back(oracle_net.add_pi());
    }
    net.add_po(factor_cubes(net, pis, form));
    LiteralContext ctx(oracle_net, oracle_pis, form.support, form.polarity);
    oracle_net.add_po(OracleFactorizer(ctx).factor(form.cubes));

    ASSERT_EQ(net.node_count(), oracle_net.node_count());
    ASSERT_EQ(net.po(0), oracle_net.po(0));
    for (NodeId n = 0; n < net.node_count(); ++n) {
      ASSERT_EQ(net.type(n), oracle_net.type(n)) << "node " << n;
      ASSERT_EQ(net.fanin_count(n), oracle_net.fanin_count(n)) << "node " << n;
      for (std::size_t k = 0; k < net.fanin_count(n); ++k)
        ASSERT_EQ(net.fanin(n, k), oracle_net.fanin(n, k)) << "node " << n;
    }

    const PatternSet ps = random_patterns(static_cast<std::size_t>(form.nvars), 256, width + 1);
    const auto values = simulate(net, ps);
    const BitVec& out = values[net.po(0)];
    for (std::size_t p = 0; p < ps.num_patterns; ++p) {
      BitVec assignment(static_cast<std::size_t>(form.nvars));
      for (std::size_t v = 0; v < assignment.size(); ++v)
        assignment.set(v, ps.bits[v].get(p));
      ASSERT_EQ(out.get(p), form.eval(assignment)) << "pattern " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FactorCubesWide,
                         ::testing::Values(std::size_t{1}, std::size_t{64},
                                           std::size_t{65}, std::size_t{130}));

TEST(XorExpr, BalancedTreeNeutralElements) {
  Network net;
  EXPECT_EQ(balanced_gate_tree(net, GateType::And, {}), Network::kConst1);
  EXPECT_EQ(balanced_gate_tree(net, GateType::Xor, {}), Network::kConst0);
  const NodeId a = net.add_pi();
  EXPECT_EQ(balanced_gate_tree(net, GateType::Or, {a}), a);
}

} // namespace
} // namespace rmsyn
