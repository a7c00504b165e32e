// Tests for the Section-4 parity-of-cubes controllability procedure:
// soundness (every reported pattern has a genuine witness), agreement with
// the exact BDD decision, the paper's Properties 8/9 as corollaries, and
// the per-circuit score of the procedure against that exact decision.
#include "core/parity_analysis.hpp"

#include <gtest/gtest.h>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/simulate.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

FprmForm form_of(const TruthTable& f, const BitVec& polarity) {
  BddManager mgr(f.nvars());
  const BddRef fb = mgr.from_cover(Cover::from_truth_table(f));
  return extract_fprm(mgr, build_ofdd(mgr, fb, polarity), f.nvars());
}

TruthTable random_tt(int n, Rng& rng) {
  TruthTable f(n);
  for (uint64_t m = 0; m < f.size(); ++m)
    if (rng.flip()) f.set(m);
  return f;
}

/// The exact set of input patterns (bit 2g+h) reachable at XOR gate
/// `gate`, decided by BDDs over its fanins' functions `fn`.
uint8_t exact_patterns(BddManager& mgr, const std::vector<BddRef>& fn,
                       const Network& net, NodeId gate) {
  const auto& fi = net.fanins(gate);
  uint8_t exact = 0;
  for (unsigned idx = 0; idx < 4; ++idx) {
    const BddRef eg = (idx & 2u) ? fn[fi[0]] : mgr.bdd_not(fn[fi[0]]);
    const BddRef eh = (idx & 1u) ? fn[fi[1]] : mgr.bdd_not(fn[fi[1]]);
    if (mgr.bdd_and(eg, eh) != mgr.bdd_false()) exact |= (1u << idx);
  }
  return exact;
}

TEST(AnnotatedTree, ComputesTheFunction) {
  Rng rng(31);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = 4 + static_cast<int>(rng.below(2));
    const TruthTable f = random_tt(n, rng);
    BitVec pol(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
      if (rng.flip()) pol.set(static_cast<std::size_t>(v));
    const AnnotatedXorTree tree = build_annotated_tree(form_of(f, pol));
    EXPECT_TRUE(check_against_tts(tree.net, {f}).equivalent);
    // Cube-set bookkeeping: the root XOR covers all non-constant cubes.
    if (!tree.xor_gates.empty()) {
      const NodeId root = tree.xor_gates.back();
      std::size_t nonconst = 0;
      for (const auto& c : tree.form.cubes)
        if (c.any()) ++nonconst;
      const auto& fi = tree.net.fanins(root);
      EXPECT_EQ(tree.cube_sets[fi[0]].size() + tree.cube_sets[fi[1]].size(),
                nonconst);
    }
  }
}

TEST(ParityAnalysis, WitnessesAreGenuine) {
  Rng rng(77);
  for (int iter = 0; iter < 25; ++iter) {
    const int n = 5;
    const TruthTable f = random_tt(n, rng);
    BitVec pol(static_cast<std::size_t>(n));
    pol.set_all();
    const AnnotatedXorTree tree = build_annotated_tree(form_of(f, pol));
    const auto verdicts = analyze_tree(tree);
    for (std::size_t k = 0; k < verdicts.size(); ++k) {
      const NodeId gate = tree.xor_gates[k];
      const auto& fi = tree.net.fanins(gate);
      for (unsigned idx = 0; idx < 4; ++idx) {
        if ((verdicts[k].achieved & (1u << idx)) == 0) continue;
        PatternSet ps(tree.net.pi_count(), 0);
        ps.append(verdicts[k].witness[idx]);
        const auto values = simulate(tree.net, ps);
        const unsigned got = (values[fi[0]].get(0) ? 2u : 0u) +
                             (values[fi[1]].get(0) ? 1u : 0u);
        EXPECT_EQ(got, idx) << "bogus witness at gate " << gate;
      }
    }
  }
}

TEST(ParityAnalysis, NeverClaimsMoreThanExactControllability) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = 5;
    const TruthTable f = random_tt(n, rng);
    BitVec pol(static_cast<std::size_t>(n));
    pol.set_all();
    const AnnotatedXorTree tree = build_annotated_tree(form_of(f, pol));
    const auto verdicts = analyze_tree(tree);
    BddManager mgr(n);
    const auto fn = node_bdds(mgr, tree.net);
    for (std::size_t k = 0; k < verdicts.size(); ++k) {
      const uint8_t exact =
          exact_patterns(mgr, fn, tree.net, tree.xor_gates[k]);
      EXPECT_EQ(verdicts[k].achieved & ~exact, 0)
          << "parity method claimed an uncontrollable pattern";
    }
  }
}

TEST(ParityAnalysis, DecidesParityTreeCompletely) {
  // n-input parity: every XOR gate has all four patterns controllable and
  // the subset enumeration proves it (Property 2 + the paper's claim that
  // parity trees are irreducible).
  FprmForm form;
  form.nvars = 8;
  form.support = {0, 1, 2, 3, 4, 5, 6, 7};
  form.polarity = BitVec(8);
  form.polarity.set_all();
  for (int i = 0; i < 8; ++i) {
    BitVec c(8);
    c.set(static_cast<std::size_t>(i));
    form.cubes.push_back(c);
  }
  const AnnotatedXorTree tree = build_annotated_tree(form);
  for (const auto& v : analyze_tree(tree)) EXPECT_EQ(v.achieved, 0b1111);
}

TEST(ParityAnalysis, FindsUncontrollablePatternOfContainedCube) {
  // f = a ⊕ ab: at the XOR gate the pattern (g=0, h=1) — a=0 with ab=1 —
  // is impossible; everything else must be demonstrated.
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  BitVec ca(2), cab(2);
  ca.set(0);
  cab.set(0);
  cab.set(1);
  form.cubes = {ca, cab};
  const AnnotatedXorTree tree = build_annotated_tree(form);
  ASSERT_EQ(tree.xor_gates.size(), 1u);
  const auto v = analyze_tree(tree)[0];
  // Leaf order: g = a (cube 0), h = ab (cube 1).
  EXPECT_EQ(v.achieved & 0b0010, 0) << "(g=0,h=1) must stay unreachable";
  EXPECT_EQ(v.achieved, 0b1101);
}

TEST(ParityAnalysis, Property9FollowsFromSingletons) {
  // At least two of the three nonzero patterns come from the singleton
  // (OC) activations alone — cap the subsets at 1 and check.
  Rng rng(123);
  for (int iter = 0; iter < 15; ++iter) {
    const TruthTable f = random_tt(5, rng);
    BitVec pol(5);
    pol.set_all();
    const FprmForm form = form_of(f, pol);
    if (form.cube_count() < 2) continue;
    const AnnotatedXorTree tree = build_annotated_tree(form);
    ParityAnalysisOptions oc_only;
    oc_only.max_subset = 1;
    for (const auto& v : analyze_tree(tree, oc_only)) {
      int nonzero = 0;
      for (unsigned idx = 1; idx < 4; ++idx)
        if (v.achieved & (1u << idx)) ++nonzero;
      EXPECT_GE(nonzero, 2);
    }
  }
}

// Section 4's efficiency claim, quantified: "The redundancy removal process
// requires only to simulate a small and decidable set of primary input
// patterns." Per circuit, over the all-positive-polarity XOR cube trees of
// its outputs:
//   gates   — 2-input XOR gates in the balanced cube trees
//   oc_open — gates with >= 1 input pattern not demonstrated by the
//             AZ/AO/OC seed patterns alone (subsets of size <= 1); every
//             other gate is settled by Properties 8/9 with no extra work
//   decided — of those, gates where the bounded parity enumeration (default
//             options) matches the exact BDD decision
//   agree   — all gates where that enumeration matches the exact decision
struct Section4Score {
  const char* circuit;
  std::size_t gates, oc_open, decided, agree;
};

void PrintTo(const Section4Score& s, std::ostream* os) { *os << s.circuit; }

class ParityScore : public ::testing::TestWithParam<Section4Score> {};

TEST_P(ParityScore, MatchesExactDecision) {
  const Section4Score want = GetParam();
  const Benchmark bench = make_benchmark(want.circuit);
  const int n = static_cast<int>(bench.spec.pi_count());
  BddManager mgr(n);
  Section4Score got{want.circuit, 0, 0, 0, 0};
  for (const BddRef f : output_bdds(mgr, bench.spec)) {
    if (mgr.is_terminal(f)) continue;
    BitVec pol(static_cast<std::size_t>(n));
    pol.set_all();
    const FprmForm form = extract_fprm(mgr, build_ofdd(mgr, f, pol), n, 4096);
    if (form.truncated) continue;
    const AnnotatedXorTree tree = build_annotated_tree(form);
    ParityAnalysisOptions seeds;
    seeds.max_subset = 1;
    const auto seed_v = analyze_tree(tree, seeds);
    const auto full_v = analyze_tree(tree);

    BddManager lm(static_cast<int>(tree.net.pi_count()));
    const auto fn = node_bdds(lm, tree.net);
    for (std::size_t k = 0; k < tree.xor_gates.size(); ++k) {
      const uint8_t exact =
          exact_patterns(lm, fn, tree.net, tree.xor_gates[k]);
      ++got.gates;
      if (full_v[k].achieved == exact) ++got.agree;
      if (seed_v[k].achieved != 0b1111) {
        ++got.oc_open;
        if (full_v[k].achieved == exact) ++got.decided;
      }
    }
  }
  EXPECT_EQ(got.gates, want.gates);
  EXPECT_EQ(got.oc_open, want.oc_open);
  EXPECT_EQ(got.decided, want.decided);
  EXPECT_EQ(got.agree, want.agree);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, ParityScore,
    ::testing::Values(Section4Score{"z4ml", 28, 14, 14, 28},
                      Section4Score{"adr4", 29, 14, 14, 29},
                      Section4Score{"rd53", 17, 8, 8, 17},
                      Section4Score{"rd73", 60, 30, 30, 60},
                      Section4Score{"majority", 14, 7, 7, 14},
                      Section4Score{"t481", 39, 28, 28, 39},
                      Section4Score{"9sym", 209, 82, 82, 209},
                      Section4Score{"f2", 2, 1, 1, 2},
                      Section4Score{"cm82a", 12, 6, 6, 12}),
    [](const ::testing::TestParamInfo<Section4Score>& info) {
      return std::string(info.param.circuit);
    });

} // namespace
} // namespace rmsyn
