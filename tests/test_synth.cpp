// Full-flow tests: Sections 2-4 end to end. Every synthesized circuit is
// verified against its specification (the flow also self-verifies), and the
// headline examples of the paper are checked for size.
#include "core/synth.hpp"

#include <gtest/gtest.h>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/stats.hpp"
#include "util/faultplan.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

class SynthCircuit : public ::testing::TestWithParam<const char*> {};

TEST_P(SynthCircuit, EquivalentAndReported) {
  const Benchmark bench = make_benchmark(GetParam());
  SynthReport rep;
  const Network out = synthesize(bench.spec, {}, &rep);
  const auto check = check_equivalence(bench.spec, out);
  EXPECT_TRUE(check.equivalent) << check.reason;
  EXPECT_EQ(out.pi_count(), bench.spec.pi_count());
  EXPECT_EQ(out.po_count(), bench.spec.po_count());
  EXPECT_EQ(rep.forms.size(), bench.spec.po_count());
  EXPECT_GT(rep.stats.lits, 0u);
  EXPECT_EQ(rep.stats.lits, network_stats(out).lits);
}

INSTANTIATE_TEST_SUITE_P(SmallCircuits, SynthCircuit,
                         ::testing::Values("z4ml", "adr4", "rd53", "rd73",
                                           "majority", "t481", "cm82a", "f2",
                                           "bcd-div3", "xor10", "parity",
                                           "squar5", "cm85a", "tcon", "pcle",
                                           "9sym", "co14", "cmb"));

/// Every Table-2 circuit — including the wide ones — must synthesize and
/// verify. This is the broadest integration property in the suite.
class SynthAll : public ::testing::TestWithParam<std::string> {};

TEST_P(SynthAll, WholeRegistrySynthesizesAndVerifies) {
  const Benchmark bench = make_benchmark(GetParam());
  // `verify` is on by default and throws on mismatch.
  const Network out = synthesize(bench.spec, {}, nullptr);
  EXPECT_EQ(out.pi_count(), bench.spec.pi_count());
  EXPECT_EQ(out.po_count(), bench.spec.po_count());
}

INSTANTIATE_TEST_SUITE_P(Registry, SynthAll,
                         ::testing::ValuesIn(benchmark_names()));

TEST(Synth, T481MatchesPaperScale) {
  // Paper: 25 two-input gates / 50 lits after redundancy removal. Allow a
  // small margin; the key claim is the two-orders-of-magnitude gap to the
  // SOP flow (which lands in the hundreds).
  SynthReport rep;
  const Network out = synthesize(make_benchmark("t481").spec, {}, &rep);
  EXPECT_LE(rep.stats.gates2, 30u);
  // FPRM compactness: 16 cubes in the paper's polarity; polarity search may
  // find fewer, never more.
  ASSERT_EQ(rep.fprm_cube_counts.size(), 1u);
  EXPECT_LE(rep.fprm_cube_counts[0], 16u);
  (void)out;
}

TEST(Synth, Z4mlMatchesPaperScale) {
  // Paper: 21 2-input gates (42 lits); SIS: 24 (48). Our flow must land in
  // the same region — well under the ~59-prime SOP direct form.
  SynthReport rep;
  (void)synthesize(make_benchmark("z4ml").spec, {}, &rep);
  EXPECT_LE(rep.stats.gates2, 30u);
  // z4ml FPRM: 32 cubes total over the 4 outputs (paper, Section 1).
  std::size_t total = 0;
  for (const auto c : rep.fprm_cube_counts) total += c;
  EXPECT_LE(total, 32u);
  EXPECT_GE(total, 20u);
}

TEST(Synth, Z4mlFprmCubesMatchPaperCounts) {
  // Under all-positive polarity the 3-bit adder outputs have 3/5/9/15
  // cubes (sum 32), every one of them prime (Section 2).
  const Benchmark bench = make_benchmark("z4ml");
  SynthOptions opt;
  opt.polarity.exhaustive_limit = 0; // force PPRM (greedy starts positive)
  opt.polarity.greedy_passes = 0;
  SynthReport rep;
  (void)synthesize(bench.spec, opt, &rep);
  std::vector<std::size_t> counts = rep.fprm_cube_counts;
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts, (std::vector<std::size_t>{3, 5, 9, 15}));
  for (const auto& form : rep.forms) {
    if (form.cubes.empty()) continue;
    const auto primes = prime_flags(form);
    for (const bool p : primes) EXPECT_TRUE(p) << "adder cubes are all prime";
  }
}

TEST(Synth, MethodsBothWork) {
  for (const auto method : {FactorMethod::Cubes, FactorMethod::Ofdd}) {
    SynthOptions opt;
    opt.method = method;
    const Benchmark bench = make_benchmark("rd53");
    const Network out = synthesize(bench.spec, opt, nullptr);
    EXPECT_TRUE(check_equivalence(bench.spec, out).equivalent);
  }
}

TEST(Synth, Method1RoutesCubeListsFarLargerThanTheirOfdd) {
  // my_adder's top carries have up to 131,071 FPRM cubes against about a
  // hundred OFDD nodes: past kMaxCubesPerOfddNode cubes per node Method 1
  // factors the OFDD instead, which is smaller than what rules (a)-(e)
  // make of the cube list. The low-order outputs stay on cubes.
  const Benchmark adder = make_benchmark("my_adder");
  SynthOptions cubes;
  cubes.method = FactorMethod::Cubes;
  SynthReport rep;
  const Network out = synthesize(adder.spec, cubes, &rep);
  EXPECT_TRUE(check_equivalence(adder.spec, out).equivalent);
  EXPECT_GT(rep.outputs_via_ofdd, 0u);
  EXPECT_LT(rep.outputs_via_ofdd, adder.spec.po_count());
  EXPECT_LE(rep.stats.lits, 384u);

  // The circuits whose Method-1 network wins keep every output on cubes.
  for (const char* name : {"cmb", "co14"}) {
    const Benchmark bench = make_benchmark(name);
    SynthReport won;
    (void)synthesize(bench.spec, {}, &won);
    EXPECT_EQ(won.outputs_via_cubes, bench.spec.po_count()) << name;
  }
}

TEST(Synth, RedundancyRemovalReducesOrKeeps) {
  SynthOptions with, without;
  without.run_redundancy_removal = false;
  const Benchmark bench = make_benchmark("adr4");
  SynthReport r1, r2;
  (void)synthesize(bench.spec, with, &r1);
  (void)synthesize(bench.spec, without, &r2);
  EXPECT_LE(r1.stats.gates2, r2.stats.gates2);
}

TEST(Synth, ConstantAndTrivialOutputs) {
  Network spec;
  const NodeId a = spec.add_pi();
  const NodeId b = spec.add_pi();
  spec.add_po(Network::kConst1, "one");
  spec.add_po(spec.add_and(a, spec.add_not(a)), "zero");
  spec.add_po(b, "wire");
  const Network out = synthesize(spec, {}, nullptr);
  EXPECT_TRUE(check_equivalence(spec, out).equivalent);
  EXPECT_EQ(network_stats(out).gates2, 0u);
}

TEST(Synth, RandomMultiOutputFunctions) {
  Rng rng(2026);
  for (int iter = 0; iter < 6; ++iter) {
    const int n = 4 + static_cast<int>(rng.below(3));
    std::vector<TruthTable> tts;
    for (int o = 0; o < 3; ++o) {
      TruthTable f(n);
      for (uint64_t m = 0; m < f.size(); ++m)
        if (rng.flip()) f.set(m);
      tts.push_back(f);
    }
    const Network spec = network_from_tts(tts);
    const Network out = synthesize(spec, {}, nullptr);
    const auto check = check_against_tts(out, tts);
    EXPECT_TRUE(check.equivalent) << check.reason;
  }
}

TEST(Synth, FprmExtractFaultDegradesAndVerifies) {
  // The winner's cube lists are enumerated after selection, for Section 4
  // and the report only: a trip there truncates them and degrades the
  // flow, but the network is complete and verified.
  const Benchmark bench = make_benchmark("rd53");
  FaultPlan p;
  p.trip_at_stage = "fprm-extract";
  ScopedFaultPlan plan(p);
  ResourceGovernor gov;
  SynthOptions opt;
  opt.governor = &gov;
  SynthReport rep;
  const Network out = synthesize(bench.spec, opt, &rep);
  EXPECT_TRUE(rep.status.is_degraded()) << rep.status.to_string();
  EXPECT_EQ(rep.status.stage, "fprm-extract");
  ASSERT_EQ(rep.forms.size(), bench.spec.po_count());
  for (const auto& form : rep.forms) EXPECT_TRUE(form.truncated);
  EXPECT_EQ(rep.fprm_cube_counts, (std::vector<std::size_t>{5, 10, 5}));
  const auto check = check_equivalence(bench.spec, out);
  EXPECT_TRUE(check.equivalent) << check.reason;
}

TEST(Synth, ReportsRuntime) {
  SynthReport rep;
  (void)synthesize(make_benchmark("rd53").spec, {}, &rep);
  EXPECT_GT(rep.seconds, 0.0);
  EXPECT_LT(rep.seconds, 60.0);
}

} // namespace
} // namespace rmsyn
