// Section 4 tests: the paper's Table 1 semantics, the worked example
// (B ⊕ C) ⊕ BC → B + C, pattern-set construction, irreducibility of parity,
// and function preservation on random XOR networks.
#include "core/redundancy.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "equiv/equiv.hpp"
#include "network/stats.hpp"
#include "network/transform.hpp"
#include "util/rng.hpp"

#ifndef RMSYN_SOURCE_DIR
#define RMSYN_SOURCE_DIR "."
#endif

namespace rmsyn {
namespace {

TEST(Table1, ImpliedFunctionsMatchXorOnReducedDomains) {
  // Table 1 of the paper: when a pattern can never occur, XOR coincides
  // with one of {OR, g·h̄, ḡ·h} on the remaining patterns.
  const auto xor_v = [](bool g, bool h) { return g != h; };
  const auto or_v = [](bool g, bool h) { return g || h; };
  const auto gnh = [](bool g, bool h) { return g && !h; };
  const auto ngh = [](bool g, bool h) { return !g && h; };
  for (const auto& [g, h] : {std::pair{false, false}, {false, true},
                             {true, false}, {true, true}}) {
    if (!(g && h)) {
      EXPECT_EQ(xor_v(g, h), or_v(g, h)); // (1,1) missing
    }
    if (!(!g && h)) {
      EXPECT_EQ(xor_v(g, h), gnh(g, h)); // (0,1) missing
    }
    if (!(g && !h)) {
      EXPECT_EQ(xor_v(g, h), ngh(g, h)); // (1,0) missing
    }
  }
}

TEST(PatternSets, AzAoOcSa1Construction) {
  // One form: support {0,2}, polarity: x0 positive, x2 negative; one cube
  // containing both literals.
  FprmForm form;
  form.nvars = 3;
  form.support = {0, 2};
  form.polarity = BitVec(3);
  form.polarity.set(0); // x0 positive, x2 negative (bit 2 clear)
  BitVec cube(2);
  cube.set(0);
  cube.set(1);
  form.cubes = {cube};

  const PatternSet ps = fprm_pattern_set(3, {form}, /*include_sa1=*/true, 100);
  // global AZ + per-form AZ + AO + OC + 2 SA1 = 6 patterns.
  EXPECT_EQ(ps.num_patterns, 6u);
  // Per-form AZ: literals at 0 → x0=0, x2=1 (negative literal off means
  // the variable is 1... literal x̄2=0 → x2=1).
  EXPECT_FALSE(ps.bits[0].get(1));
  EXPECT_TRUE(ps.bits[2].get(1));
  // AO: x0=1, x2=0.
  EXPECT_TRUE(ps.bits[0].get(2));
  EXPECT_FALSE(ps.bits[2].get(2));
  // OC (same as AO here since the only cube holds both literals).
  EXPECT_TRUE(ps.bits[0].get(3));
  EXPECT_FALSE(ps.bits[2].get(3));
  // SA1 patterns flip exactly one literal of the cube each.
  EXPECT_FALSE(ps.bits[0].get(4)); // x0 literal dropped
  EXPECT_FALSE(ps.bits[2].get(4));
  EXPECT_TRUE(ps.bits[0].get(5));
  EXPECT_TRUE(ps.bits[2].get(5)); // x2 literal dropped -> x2=1
}

TEST(PatternSets, CapIsHonored) {
  FprmForm form;
  form.nvars = 4;
  form.support = {0, 1, 2, 3};
  form.polarity = BitVec(4);
  form.polarity.set_all();
  for (int i = 0; i < 10; ++i) {
    BitVec c(4);
    c.set(static_cast<std::size_t>(i % 4));
    form.cubes.push_back(c);
  }
  const PatternSet ps = fprm_pattern_set(4, {form}, true, 7);
  EXPECT_EQ(ps.num_patterns, 7u);
}

/// The paper's end-of-Section-4 example:
/// (B ⊕ C) ⊕ BC  →  (B ⊕ C) + BC  →  (B + C) + BC  →  B + C.
TEST(Redundancy, PaperExampleCollapsesToSingleOr) {
  Network net;
  const NodeId b = net.add_pi("B");
  const NodeId c = net.add_pi("C");
  const NodeId inner = net.add_xor(b, c);
  const NodeId bc = net.add_and(b, c);
  net.add_po(net.add_xor(inner, bc), "f");

  // The FPRM of f = B + C (PPRM: B ⊕ C ⊕ BC).
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  BitVec cb(2), cc(2), cbc(2);
  cb.set(0);
  cc.set(1);
  cbc.set(0);
  cbc.set(1);
  form.cubes = {cb, cc, cbc};

  RedundancyStats stats;
  const Network out = remove_xor_redundancy(net, {form}, {}, &stats);
  const auto s = network_stats(out);
  EXPECT_EQ(s.num_xor2, 0u);
  EXPECT_EQ(s.gates2, 1u) << "expected a single OR gate";
  EXPECT_GE(stats.reduced_to_or, 1u);          // Property 3 fired
  EXPECT_GE(stats.observability_reductions +
                stats.fanins_removed, 1u);      // the domino + cleanup
  const auto tt = TruthTable::variable(2, 0) | TruthTable::variable(2, 1);
  EXPECT_TRUE(check_against_tts(out, {tt}).equivalent);
}

TEST(Redundancy, ParityIsIrreducible) {
  // All XOR gates of a parity tree must survive (the paper: "all the XOR
  // gates in a parity function are not reducible").
  Network net;
  std::vector<NodeId> xs;
  for (int i = 0; i < 8; ++i) xs.push_back(net.add_pi());
  NodeId acc = xs[0];
  for (int i = 1; i < 8; ++i) acc = net.add_xor(acc, xs[static_cast<std::size_t>(i)]);
  net.add_po(acc);

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
  RedundancyStats stats;
  const Network out = remove_xor_redundancy(net, {form}, {}, &stats);
  EXPECT_EQ(network_stats(out).num_xor2, 7u);
  EXPECT_EQ(stats.xor_gates_after, stats.xor_gates_before);
}

TEST(Redundancy, Property3UncontrollableOneOne) {
  // f = ab ⊕ āc: (1,1) needs ab=1 and āc=1 — impossible → OR.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId g = net.add_and(a, b);
  const NodeId h = net.add_and(net.add_not(a), c);
  net.add_po(net.add_xor(g, h));
  RedundancyStats stats;
  const Network out = remove_xor_redundancy(net, {}, {}, &stats);
  EXPECT_EQ(network_stats(out).num_xor2, 0u);
  EXPECT_GE(stats.reduced_to_or, 1u);
}

TEST(Redundancy, Property4UncontrollablePattern) {
  // f = a ⊕ ab: (0,1) impossible (ab=1 forces a=1) → f = a·(ab)'... which
  // simplifies to a·b̄.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  net.add_po(net.add_xor(a, net.add_and(a, b)));
  const Network out = remove_xor_redundancy(net, {}, {}, nullptr);
  EXPECT_EQ(network_stats(out).num_xor2, 0u);
  const auto tt = TruthTable::variable(2, 0) & ~TruthTable::variable(2, 1);
  EXPECT_TRUE(check_against_tts(out, {tt}).equivalent);
}

TEST(Redundancy, AndFaninStuckAtRemoval) {
  // f = (a+b)·(a+b+c): the second term's c (indeed the whole second gate)
  // is redundant; the pass must shrink it to a + b.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId t1 = net.add_or(a, b);
  const NodeId t2 = net.add_gate(GateType::Or, {a, b, c});
  net.add_po(net.add_and(t1, t2));
  RedundancyStats stats;
  const Network out = remove_xor_redundancy(net, {}, {}, &stats);
  EXPECT_EQ(network_stats(out).gates2, 1u);
  EXPECT_GE(stats.fanins_removed, 1u);
  const auto tt = TruthTable::variable(3, 0) | TruthTable::variable(3, 1);
  EXPECT_TRUE(check_against_tts(out, {tt}).equivalent);
}

class RedundancyRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RedundancyRandom, PreservesFunctionAndNeverGrows) {
  Rng rng(GetParam());
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < 5; ++i) pool.push_back(net.add_pi());
  for (int g = 0; g < 30; ++g) {
    const NodeId a = pool[rng.below(pool.size())];
    const NodeId b = pool[rng.below(pool.size())];
    switch (rng.below(4)) {
      case 0: pool.push_back(net.add_and(a, b)); break;
      case 1: pool.push_back(net.add_or(a, b)); break;
      case 2: pool.push_back(net.add_not(a)); break;
      default: pool.push_back(net.add_xor(a, b)); break;
    }
  }
  net.add_po(pool[pool.size() - 1]);
  net.add_po(pool[pool.size() - 2]);

  const Network reference = strash(net);
  const Network out = remove_xor_redundancy(net, {}, {}, nullptr);
  EXPECT_TRUE(check_equivalence(reference, out).equivalent);
  EXPECT_LE(network_stats(out).gates2, network_stats(decompose2(reference)).gates2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedundancyRandom,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80, 90, 100));

/// Every combination of the pass toggles must stay sound.
class RedundancyOptionCombos
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(RedundancyOptionCombos, AllTogglesPreserveFunction) {
  const auto [patterns, observability, fanins] = GetParam();
  RedundancyOptions opt;
  opt.use_pattern_filter = patterns;
  opt.observability_pass = observability;
  opt.and_fanin_pass = fanins;

  Rng rng(1234 + (patterns ? 1 : 0) + (observability ? 2 : 0) +
          (fanins ? 4 : 0));
  for (int iter = 0; iter < 5; ++iter) {
    Network net;
    std::vector<NodeId> pool;
    for (int i = 0; i < 5; ++i) pool.push_back(net.add_pi());
    for (int g = 0; g < 25; ++g) {
      const NodeId a = pool[rng.below(pool.size())];
      const NodeId b = pool[rng.below(pool.size())];
      switch (rng.below(4)) {
        case 0: pool.push_back(net.add_and(a, b)); break;
        case 1: pool.push_back(net.add_or(a, b)); break;
        case 2: pool.push_back(net.add_not(a)); break;
        default: pool.push_back(net.add_xor(a, b)); break;
      }
    }
    net.add_po(pool.back());
    const Network out = remove_xor_redundancy(net, {}, opt, nullptr);
    EXPECT_TRUE(check_equivalence(strash(net), out).equivalent);
  }
}

INSTANTIATE_TEST_SUITE_P(Toggles, RedundancyOptionCombos,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(Redundancy, PatternFilterReportsPrunes) {
  // On a parity tree the OC set demonstrates all four patterns at every
  // XOR gate, so every gate should be pruned without exact checks.
  Network net;
  std::vector<NodeId> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(net.add_pi());
  NodeId acc = xs[0];
  for (int i = 1; i < 6; ++i) acc = net.add_xor(acc, xs[static_cast<std::size_t>(i)]);
  net.add_po(acc);
  FprmForm form;
  form.nvars = 6;
  form.support = {0, 1, 2, 3, 4, 5};
  form.polarity = BitVec(6);
  form.polarity.set_all();
  for (int i = 0; i < 6; ++i) {
    BitVec cc(6);
    cc.set(static_cast<std::size_t>(i));
    form.cubes.push_back(cc);
  }
  RedundancyStats with_filter;
  (void)remove_xor_redundancy(net, {form}, {}, &with_filter);
  EXPECT_GT(with_filter.pattern_pruned, 0u);

  RedundancyOptions no_filter;
  no_filter.use_pattern_filter = false;
  RedundancyStats without;
  (void)remove_xor_redundancy(net, {form}, no_filter, &without);
  EXPECT_GT(without.exact_checks, with_filter.exact_checks);
}

TEST(Redundancy, PatternTailNeverShowsTheZeroZeroPattern) {
  // g = a + b and h = a + b' are never both 0, so the XOR reduces to NAND.
  // The form below yields 3 patterns: (g,h) = (0,1), (0,1), (1,1). Past
  // them the last simulation word reads g = h = 0, which step 1 must not
  // count as a demonstrated (0,0) pattern.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_or(a, b);
  const NodeId h = net.add_or(a, net.add_not(b));
  net.add_po(net.add_xor(g, h));
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  RedundancyOptions opt;
  opt.observability_pass = false;
  opt.and_fanin_pass = false;
  RedundancyStats stats;
  const Network out = remove_xor_redundancy(net, {form}, opt, &stats);
  EXPECT_EQ(stats.reduced_to_nand, 1u);
  EXPECT_TRUE(check_equivalence(net, out).equivalent);
}

// --- The reported cube lists and the pattern sets built from them ----------

/// The pattern-set construction by whole-assignment append(), kept as the
/// oracle for fprm_pattern_set's row writer: same patterns, same order,
/// same cap.
PatternSet append_oracle_pattern_set(std::size_t num_pis,
                                     const std::vector<FprmForm>& forms,
                                     bool include_sa1,
                                     std::size_t max_patterns) {
  PatternSet ps(num_pis, 0);
  const auto add = [&](const BitVec& a) {
    if (ps.num_patterns < max_patterns) ps.append(a);
  };
  add(BitVec(num_pis));
  for (const auto& form : forms) {
    const auto literal_assignment = [&](bool lit_value) {
      BitVec a(num_pis);
      for (const int v : form.support) {
        const auto iv = static_cast<std::size_t>(v);
        a.set(iv, form.polarity.get(iv) == lit_value);
      }
      return a;
    };
    add(literal_assignment(false));
    add(literal_assignment(true));
    for (const auto& cube : form.cubes) {
      BitVec oc = literal_assignment(false);
      for (std::size_t i = cube.first_set(); i != BitVec::npos;
           i = cube.next_set(i + 1)) {
        const auto v = static_cast<std::size_t>(form.support[i]);
        oc.set(v, form.polarity.get(v));
      }
      add(oc);
      if (include_sa1) {
        for (std::size_t i = cube.first_set(); i != BitVec::npos;
             i = cube.next_set(i + 1)) {
          const auto v = static_cast<std::size_t>(form.support[i]);
          BitVec sa1 = oc;
          sa1.set(v, !form.polarity.get(v));
          add(sa1);
        }
      }
      if (ps.num_patterns >= max_patterns) return ps;
    }
  }
  return ps;
}

/// rep.forms of the default flow, synthesized once per circuit and process.
const std::vector<FprmForm>& reported_forms(const std::string& circuit) {
  static std::map<std::string, std::vector<FprmForm>> cache;
  auto it = cache.find(circuit);
  if (it == cache.end()) {
    SynthReport rep;
    (void)synthesize(make_benchmark(circuit).spec, {}, &rep);
    it = cache.emplace(circuit, std::move(rep.forms)).first;
  }
  return it->second;
}

/// FNV-1a over every form's support, polarity, cubes (in order) and
/// `truncated` flag, as 16 hex digits.
std::string forms_digest(const std::vector<FprmForm>& forms) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_bits = [&](const BitVec& v) {
    mix(v.size());
    for (std::size_t w = 0; w < v.words(); ++w) mix(v.word(w));
  };
  mix(forms.size());
  for (const auto& form : forms) {
    mix(static_cast<uint64_t>(form.nvars));
    mix(form.support.size());
    for (const int v : form.support) mix(static_cast<uint64_t>(v));
    mix_bits(form.polarity);
    mix(form.cubes.size());
    for (const auto& cube : form.cubes) mix_bits(cube);
    mix(form.truncated ? 1 : 0);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

class ReportedForms : public ::testing::TestWithParam<std::string> {};

TEST_P(ReportedForms, PatternSetsMatchAppendOracle) {
  const std::string& circuit = GetParam();
  const Network spec = make_benchmark(circuit).spec;
  const std::vector<FprmForm>& forms = reported_forms(circuit);
  ASSERT_EQ(forms.size(), spec.po_count());

  // Besides the fixed caps, one that stops between two SA1 patterns of the
  // first cube with two or more literals.
  std::vector<std::size_t> caps = {1, 3, 1000, std::size_t{1} << 16};
  std::size_t p = 1;
  for (const auto& form : forms) {
    p += 2;
    for (const auto& cube : form.cubes) {
      p += 1; // OC
      if (cube.count() >= 2 && caps.size() == 4) caps.push_back(p + 1);
      p += cube.count();
    }
  }
  for (const bool sa1 : {false, true}) {
    for (const std::size_t cap : caps) {
      const PatternSet got =
          fprm_pattern_set(spec.pi_count(), forms, sa1, cap);
      const PatternSet want =
          append_oracle_pattern_set(spec.pi_count(), forms, sa1, cap);
      ASSERT_EQ(got.num_patterns, want.num_patterns)
          << circuit << " sa1=" << sa1 << " cap=" << cap;
      ASSERT_EQ(got.bits.size(), want.bits.size());
      for (std::size_t i = 0; i < got.bits.size(); ++i)
        ASSERT_EQ(got.bits[i], want.bits[i])
            << circuit << " sa1=" << sa1 << " cap=" << cap << " pi " << i;
    }
  }
}

/// Pins every circuit's reported cube lists to data/baselines/forms_digest.txt.
/// Each run prints its `forms-digest <circuit> <hex>` line; the regeneration
/// command is in data/baselines/README.md.
TEST_P(ReportedForms, DigestMatchesBaseline) {
  const std::string& circuit = GetParam();
  const std::string digest = forms_digest(reported_forms(circuit));
  std::printf("forms-digest %s %s\n", circuit.c_str(), digest.c_str());

  const std::string path =
      std::string(RMSYN_SOURCE_DIR) + "/data/baselines/forms_digest.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::map<std::string, std::string> expected;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string name, hex;
    if (fields >> name >> hex) expected[name] = hex;
  }
  ASSERT_EQ(expected.count(circuit), 1u) << circuit << " missing from " << path;
  EXPECT_EQ(digest, expected[circuit]) << circuit;
}

INSTANTIATE_TEST_SUITE_P(Registry, ReportedForms,
                         ::testing::ValuesIn(benchmark_names()));

} // namespace
} // namespace rmsyn
