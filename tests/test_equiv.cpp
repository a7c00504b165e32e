#include "equiv/equiv.hpp"

#include <gtest/gtest.h>

#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "network/transform.hpp"
#include "rewrite/rewrite.hpp"
#include "util/governor.hpp"

namespace rmsyn {
namespace {

Network xor_via_andor() {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  net.add_po(net.add_or(net.add_and(a, net.add_not(b)),
                        net.add_and(net.add_not(a), b)));
  return net;
}

Network xor_direct() {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  net.add_po(net.add_xor(a, b));
  return net;
}

TEST(Equiv, EquivalentImplementationsAccepted) {
  const auto r = check_equivalence(xor_direct(), xor_via_andor());
  EXPECT_TRUE(r.equivalent) << r.reason;
}

TEST(Equiv, InequivalentDetectedWithWitness) {
  Network wrong;
  const NodeId a = wrong.add_pi();
  const NodeId b = wrong.add_pi();
  wrong.add_po(wrong.add_or(a, b)); // OR != XOR at (1,1)
  const auto r = check_equivalence(xor_direct(), wrong);
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.reason.empty());
}

TEST(Equiv, InterfaceMismatchReported) {
  Network one_pi;
  one_pi.add_po(one_pi.add_pi());
  EXPECT_FALSE(check_equivalence(one_pi, xor_direct()).equivalent);
  Network two_pos = xor_direct();
  two_pos.add_po(two_pos.po(0));
  EXPECT_FALSE(check_equivalence(xor_direct(), two_pos).equivalent);
}

TEST(Equiv, AgainstTruthTables) {
  const auto tt = TruthTable::variable(2, 0) ^ TruthTable::variable(2, 1);
  EXPECT_TRUE(check_against_tts(xor_via_andor(), {tt}).equivalent);
  EXPECT_FALSE(check_against_tts(xor_via_andor(), {~tt}).equivalent);
}

TEST(Equiv, NodeBddsMatchSimulation) {
  const Network net = xor_via_andor();
  BddManager mgr(2);
  const auto f = output_bdds(mgr, net);
  ASSERT_EQ(f.size(), 1u);
  for (uint64_t m = 0; m < 4; ++m) {
    BitVec a(2);
    if (m & 1) a.set(0);
    if (m & 2) a.set(1);
    EXPECT_EQ(mgr.eval(f[0], a), net.eval({(m & 1) != 0, (m & 2) != 0})[0]);
  }
}

TEST(Equiv, ConstantOutputs) {
  Network c0;
  c0.add_pi();
  c0.add_po(Network::kConst0);
  Network c0b;
  const NodeId a = c0b.add_pi();
  c0b.add_po(c0b.add_and(a, c0b.add_not(a)));
  EXPECT_TRUE(check_equivalence(c0, c0b).equivalent);
}

/// A governor far too small for any BDD of a wide multiplier.
ResourceLimits tiny_budget() {
  ResourceLimits lim;
  lim.step_limit = 1000;
  return lim;
}

void expect_decided_equivalent(const Network& a, const Network& b) {
  ResourceGovernor gov(tiny_budget());
  const EquivResult r = check_equivalence(a, b, 0xC0FFEE, &gov);
  EXPECT_TRUE(r.decided) << r.reason;
  EXPECT_TRUE(r.equivalent) << r.reason;
  EXPECT_EQ(r.proved_by_structure + r.proved_by_bdd, a.po_count());
}

// The BDD of a wide multiplier does not fit a 1000-step budget; the
// structural miter decides these checks without building one.
void expect_multiplier_decided(const char* name) {
  const Network spec = make_benchmark(name).spec;
  expect_decided_equivalent(spec, strash(spec));
  Network rewritten = spec;
  rw::rewrite_network(rewritten);
  expect_decided_equivalent(spec, rewritten);
}

TEST(EquivScale, Mult16DecidesByStructureOnATinyBudget) {
  expect_multiplier_decided("mult16");
}

TEST(EquivScale, Mult132DecidesByStructureOnATinyBudget) {
  expect_multiplier_decided("mult132");
}

TEST(EquivScale, OneGateMutationInMult16IsNotEquivalent) {
  const Network spec = make_benchmark("mult16").spec;
  NodeId victim = Network::kNoNode;
  for (NodeId n = 0; n < spec.node_count() && victim == Network::kNoNode; ++n)
    if (spec.type(n) == GateType::And) victim = n;
  ASSERT_NE(victim, Network::kNoNode);
  Network mutant = spec;
  const FaninSpan fi = spec.fanins(victim);
  mutant.rewrite_gate(victim, GateType::Or, {fi.begin(), fi.end()});
  ResourceGovernor gov(tiny_budget());
  const EquivResult r = check_equivalence(spec, mutant, 0xC0FFEE, &gov);
  EXPECT_TRUE(r.decided);
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.reason.empty());
}

// Every single And/Or/Xor type flip in mult16 shows up among 256 random
// patterns, so a mutation that reaches the BDD step has to fire rarely:
// product bit 3 is XORed with a 12-input AND (one input in 4096).
TEST(EquivScale, RareMutationInMult16IsFoundByTheBddWithAWitness) {
  const Network spec = make_benchmark("mult16").spec;
  Network mutant = spec;
  const NodeId p3 = spec.po(3);
  ASSERT_EQ(spec.type(p3), GateType::Xor);
  ASSERT_EQ(spec.ref_count(p3), 0u) << "p3 must drive only its output";
  std::vector<NodeId> trigger_inputs;
  for (const char* pi : {"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "b0",
                         "b1", "b2", "b3"})
    for (const NodeId n : spec.pis())
      if (spec.name(n) == pi) trigger_inputs.push_back(n);
  ASSERT_EQ(trigger_inputs.size(), 12u);
  const NodeId trigger = mutant.add_gate(GateType::And, trigger_inputs);
  const FaninSpan fi = spec.fanins(p3);
  mutant.rewrite_gate(p3, GateType::Xor, {fi[0], fi[1], trigger});

  const EquivResult r = check_equivalence(spec, mutant);
  ASSERT_TRUE(r.decided);
  ASSERT_FALSE(r.equivalent);
  const std::string prefix = "BDD mismatch on output 3 (p3), witness ";
  ASSERT_EQ(r.reason.rfind(prefix, 0), 0u) << r.reason;
  EXPECT_EQ(r.proved_by_structure, spec.po_count() - 1);
  const std::string bits = r.reason.substr(prefix.size());
  ASSERT_EQ(bits.size(), spec.pi_count());
  std::vector<bool> assignment;
  for (const char c : bits) assignment.push_back(c == '1');
  EXPECT_NE(spec.eval(assignment), mutant.eval(assignment));
}

// f2's synthesized network shares the logic of two of its four outputs
// with the spec; the BDD proves the other two.
TEST(Equiv, PartiallySharedPairsSplitBetweenStructureAndBdd) {
  const Network spec = make_benchmark("f2").spec;
  const Network out = synthesize(spec);
  const EquivResult r = check_equivalence(spec, out);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.equivalent) << r.reason;
  EXPECT_EQ(r.proved_by_structure, 2u);
  EXPECT_EQ(r.proved_by_bdd, 2u);

  // Mutate a gate in the cone of an output structure left open.
  const Network miter = strash_miter(spec, out);
  std::size_t open = out.po_count();
  for (std::size_t i = 0; i < out.po_count() && open == out.po_count(); ++i)
    if (miter.po(i) != miter.po(out.po_count() + i)) open = i;
  ASSERT_LT(open, out.po_count());
  Network mutant = out;
  const NodeId head = mutant.po(open);
  ASSERT_TRUE(mutant.type(head) == GateType::And ||
              mutant.type(head) == GateType::Or ||
              mutant.type(head) == GateType::Xor)
      << "expected a gate at the head of output " << open;
  const FaninSpan fi = out.fanins(head);
  mutant.rewrite_gate(head,
                      out.type(head) == GateType::Xor ? GateType::Or
                                                      : GateType::Xor,
                      {fi.begin(), fi.end()});
  const EquivResult bad = check_equivalence(spec, mutant);
  EXPECT_TRUE(bad.decided);
  EXPECT_FALSE(bad.equivalent);
}

TEST(Equiv, ComplementedOutputIsNeverProvedByStructure) {
  Network a;
  const NodeId x = a.add_pi();
  const NodeId y = a.add_pi();
  a.add_po(a.add_and(x, y));
  a.add_po(a.add_xor(x, y));
  Network b;
  const NodeId bx = b.add_pi();
  const NodeId by = b.add_pi();
  b.add_po(b.add_not(b.add_and(bx, by)));
  b.add_po(b.add_gate(GateType::Xnor, {bx, by}));
  const Network miter = strash_miter(a, b);
  ASSERT_EQ(miter.po_count(), 4u);
  EXPECT_NE(miter.po(0), miter.po(2));
  EXPECT_NE(miter.po(1), miter.po(3));
  const EquivResult r = check_equivalence(a, b);
  EXPECT_TRUE(r.decided);
  EXPECT_FALSE(r.equivalent);
  EXPECT_EQ(r.proved_by_structure, 0u);
}

TEST(Equiv, ProvedCountsAddUpToThePoCount) {
  for (const char* name : {"f2", "rd53", "z4ml", "t481", "mlp4", "adr4"}) {
    SCOPED_TRACE(name);
    const Network spec = make_benchmark(name).spec;
    for (const Network& impl : {strash(spec), synthesize(spec)}) {
      const EquivResult r = check_equivalence(spec, impl);
      ASSERT_TRUE(r.decided);
      ASSERT_TRUE(r.equivalent) << r.reason;
      EXPECT_EQ(r.proved_by_structure + r.proved_by_bdd, spec.po_count());
    }
  }
}

} // namespace
} // namespace rmsyn
