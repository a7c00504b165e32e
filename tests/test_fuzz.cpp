// Cross-flow fuzzing: randomized multi-output specifications pushed through
// every pipeline in the repository, with functional equivalence asserted at
// each stage. This is the broadest failure-injection net in the suite —
// any unsound rewrite anywhere (factorization, redundancy removal, resub,
// baseline passes, subject-graph construction) shows up here as an
// equivalence failure.
#include <gtest/gtest.h>

#include "baseline/script.hpp"
#include "core/synth.hpp"
#include "equiv/equiv.hpp"
#include "mapping/mapper.hpp"
#include "network/io.hpp"
#include "network/transform.hpp"
#include "power/power.hpp"
#include "rewrite/rewrite.hpp"
#include "testability/faults.hpp"
#include "util/faultplan.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

/// Random DAG spec with a mix of gate types and arities.
Network random_spec(uint64_t seed) {
  Rng rng(seed);
  Network net;
  std::vector<NodeId> pool;
  const int npis = 4 + static_cast<int>(rng.below(4));
  for (int i = 0; i < npis; ++i) pool.push_back(net.add_pi());
  const int ngates = 10 + static_cast<int>(rng.below(25));
  for (int g = 0; g < ngates; ++g) {
    const std::size_t arity = 2 + rng.below(2);
    std::vector<NodeId> fi;
    for (std::size_t k = 0; k < arity; ++k)
      fi.push_back(pool[rng.below(pool.size())]);
    switch (rng.below(7)) {
      case 0: pool.push_back(net.add_gate(GateType::And, fi)); break;
      case 1: pool.push_back(net.add_gate(GateType::Or, fi)); break;
      case 2: pool.push_back(net.add_gate(GateType::Xor, fi)); break;
      case 3: pool.push_back(net.add_gate(GateType::Nand, fi)); break;
      case 4: pool.push_back(net.add_gate(GateType::Nor, fi)); break;
      case 5: pool.push_back(net.add_gate(GateType::Xnor, fi)); break;
      default: pool.push_back(net.add_not(fi[0])); break;
    }
  }
  const int npos = 2 + static_cast<int>(rng.below(3));
  for (int o = 0; o < npos; ++o)
    net.add_po(pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  return net;
}

class Fuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Fuzz, FprmFlowIsSound) {
  const Network spec = random_spec(GetParam());
  // synthesize() self-verifies (throws on mismatch); double-check anyway.
  const Network out = synthesize(spec, {}, nullptr);
  EXPECT_TRUE(check_equivalence(spec, out).equivalent);
}

TEST_P(Fuzz, BaselineFlowIsSound) {
  const Network spec = random_spec(GetParam() + 1000);
  const Network out = baseline_synthesize(spec, {}, nullptr);
  EXPECT_TRUE(check_equivalence(spec, out).equivalent);
}

TEST_P(Fuzz, SubjectGraphAndBlifRoundTripAreSound) {
  const Network spec = random_spec(GetParam() + 3000);
  EXPECT_TRUE(check_equivalence(spec, subject_graph(spec)).equivalent);
  const Network rt = read_blif_string(
      write_blif_string(decompose2(strash(spec)), "fz"));
  EXPECT_TRUE(check_equivalence(spec, rt).equivalent);
}

TEST_P(Fuzz, MappingCoversEveryNetwork) {
  const Network spec = random_spec(GetParam() + 4000);
  const Network ours = synthesize(spec, {}, nullptr);
  const MapResult r = map_network(ours, mcnc_library());
  // Mapping must succeed and account for all pins consistently.
  EXPECT_GE(r.literal_count, r.gate_count);
  EXPECT_GE(r.area, static_cast<double>(r.gate_count));
}

TEST_P(Fuzz, InjectedFaultsAreDetectedOrRedundant) {
  // Failure injection: flip a random gate's type; either the equivalence
  // checker reports a mismatch or the change was functionally neutral —
  // which the checker must then confirm.
  const Network spec = random_spec(GetParam() + 5000);
  Rng rng(GetParam() + 6000);
  Network broken = spec;
  std::vector<NodeId> gates;
  const auto live = broken.live_mask();
  for (NodeId n = 0; n < broken.node_count(); ++n) {
    const GateType t = broken.type(n);
    if (live[n] && (t == GateType::And || t == GateType::Or))
      gates.push_back(n);
  }
  if (gates.empty()) return;
  const NodeId victim = gates[rng.below(gates.size())];
  broken.rewrite_gate(victim,
                      broken.type(victim) == GateType::And ? GateType::Or
                                                           : GateType::And,
                      broken.fanins(victim));
  const auto r = check_equivalence(spec, broken);
  if (!r.equivalent) {
    EXPECT_FALSE(r.reason.empty());
  } else {
    // Truly neutral flip (e.g. masked cone) — fine, but then both still
    // synthesize to equivalent circuits.
    EXPECT_TRUE(check_equivalence(broken, synthesize(spec, {}, nullptr))
                    .equivalent);
  }
}

TEST_P(Fuzz, GovernedFlowsAreSoundUnderRandomBudgets) {
  // Resource-exhaustion fuzzing: every random budget — however starved —
  // must yield ok/degraded/failed with a network equivalent to the spec
  // (a failed FPRM flow hands the spec back), and must never crash or
  // report ok after a trip.
  const Network spec = random_spec(GetParam() + 7000);
  Rng rng(GetParam() + 8000);
  for (int round = 0; round < 4; ++round) {
    ResourceLimits lim;
    // Budgets from near-starvation to roomy; sometimes node-capped too.
    lim.step_limit = uint64_t{1} << (8 + rng.below(14));
    if (rng.below(2) == 0) lim.node_limit = 64 + rng.below(4096);
    FaultPlan p;
    p.overflow_computed_table = rng.below(4) == 0;
    ScopedFaultPlan plan(p);

    {
      SynthOptions opt;
      ResourceGovernor gov(lim);
      opt.governor = &gov;
      SynthReport rep;
      const Network out = synthesize(spec, opt, &rep);
      const auto check = check_equivalence(spec, out);
      EXPECT_TRUE(check.equivalent)
          << "status " << rep.status.to_string() << ": " << check.reason;
      if (rep.status.is_ok()) {
        EXPECT_EQ(gov.trip_kind(), TripKind::None);
      }
    }
    {
      BaselineOptions opt;
      ResourceGovernor gov(lim);
      opt.governor = &gov;
      BaselineReport rep;
      const Network out = baseline_synthesize(spec, opt, &rep);
      EXPECT_FALSE(rep.status.is_failed());
      EXPECT_TRUE(check_equivalence(spec, out).equivalent)
          << "status " << rep.status.to_string();
    }
  }
}

TEST_P(Fuzz, GovernedRewriteIsSoundUnderRandomBudgets) {
  // Cut-rewriting under starved budgets: wherever the governor trips —
  // mid-enumeration, mid-evaluation, between phase-C commits — the pass
  // must unwind to a structurally valid network equivalent to its input
  // (replacements are atomic: verified-then-committed or fully reverted).
  const Network spec = random_spec(GetParam() + 11000);
  Rng rng(GetParam() + 12000);
  for (int round = 0; round < 4; ++round) {
    ResourceLimits lim;
    lim.step_limit = uint64_t{1} << (1 + rng.below(12));
    ResourceGovernor gov(lim);
    rw::RewriteOptions opt;
    opt.governor = &gov;
    Network net = strash(spec);
    const rw::RewriteStats st = rw::rewrite_network(net, opt);
    const auto problems = net.check_invariants();
    EXPECT_TRUE(problems.empty())
        << "steps=" << lim.step_limit << ": " << problems.front().to_string();
    const auto check = check_equivalence(spec, net);
    EXPECT_TRUE(check.equivalent)
        << "steps=" << lim.step_limit << " replacements=" << st.replacements
        << ": " << check.reason;
  }
}

TEST_P(Fuzz, GovernedFaultInjectionIsSound) {
  // Deterministic allocation faults at random depths: the trip may land in
  // any stage of any rung, but the delivered network is always equivalent.
  const Network spec = random_spec(GetParam() + 9000);
  Rng rng(GetParam() + 10000);
  for (int round = 0; round < 3; ++round) {
    SynthOptions opt;
    FaultPlan p;
    p.fail_at_allocation = 1 + rng.below(5000);
    ScopedFaultPlan plan(p);
    ResourceGovernor gov;
    opt.governor = &gov;
    SynthReport rep;
    const Network out = synthesize(spec, opt, &rep);
    EXPECT_TRUE(check_equivalence(spec, out).equivalent)
        << "fault at allocation " << p.fail_at_allocation
        << ", status " << rep.status.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110, 121, 132));

} // namespace
} // namespace rmsyn
