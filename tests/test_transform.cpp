// Structural transform tests: every rewrite must preserve the function and
// establish its advertised structural postcondition.
#include "network/transform.hpp"

#include <gtest/gtest.h>

#include "network/stats.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

Network random_network(int npis, int ngates, uint64_t seed) {
  Rng rng(seed);
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < npis; ++i) pool.push_back(net.add_pi());
  for (int g = 0; g < ngates; ++g) {
    const NodeId a = pool[rng.below(pool.size())];
    const NodeId b = pool[rng.below(pool.size())];
    NodeId n;
    switch (rng.below(6)) {
      case 0: n = net.add_and(a, b); break;
      case 1: n = net.add_or(a, b); break;
      case 2: n = net.add_xor(a, b); break;
      case 3: n = net.add_not(a); break;
      case 4: n = net.add_gate(GateType::Nand, {a, b}); break;
      default: n = net.add_gate(GateType::Xnor, {a, b}); break;
    }
    pool.push_back(n);
  }
  for (int o = 0; o < 3; ++o)
    net.add_po(pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  return net;
}

/// Exhaustive Network::eval comparison (up to 16 PIs). The oracle for
/// these transforms must not go through strash: check_equivalence's
/// structural step is built on it.
bool same_function(const Network& a, const Network& b) {
  if (a.pi_count() != b.pi_count() || a.po_count() != b.po_count())
    return false;
  const std::size_t n = a.pi_count();
  if (n > 16) {
    ADD_FAILURE() << "same_function: too many PIs to enumerate";
    return false;
  }
  std::vector<bool> in(n);
  for (uint32_t m = 0; m < (1u << n); ++m) {
    for (std::size_t i = 0; i < n; ++i) in[i] = ((m >> i) & 1) != 0;
    if (a.eval(in) != b.eval(in)) return false;
  }
  return true;
}

class TransformRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransformRandom, StrashPreservesFunctionAndNormalizes) {
  const Network net = random_network(5, 25, GetParam());
  const Network s = strash(net);
  EXPECT_TRUE(same_function(net, s));
  for (NodeId n = 0; n < s.node_count(); ++n) {
    const GateType t = s.type(n);
    EXPECT_TRUE(t != GateType::Nand && t != GateType::Nor && t != GateType::Xnor)
        << "strash must normalize to And/Or/Xor/Not";
  }
}

TEST_P(TransformRandom, StrashMiterMergesAStrashedCopy) {
  const Network net = random_network(5, 25, GetParam() + 4);
  const Network s = strash(net);
  const Network miter = strash_miter(net, s);
  ASSERT_EQ(miter.pi_count(), net.pi_count());
  ASSERT_EQ(miter.po_count(), 2 * net.po_count());
  const std::size_t n = net.po_count();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(miter.po(i), miter.po(n + i));
  // Each half of the miter computes its source's outputs.
  std::vector<bool> in(net.pi_count());
  for (uint32_t m = 0; m < (1u << in.size()); ++m) {
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = ((m >> i) & 1) != 0;
    const auto both = miter.eval(in);
    const auto ref = net.eval(in);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(both[i], ref[i]);
      EXPECT_EQ(both[n + i], ref[i]);
    }
  }
}

TEST_P(TransformRandom, Decompose2PreservesAndBounds) {
  const Network net = random_network(6, 20, GetParam() + 1);
  const Network d = decompose2(net);
  EXPECT_TRUE(same_function(net, d));
  const auto live = d.live_mask();
  for (NodeId n = 0; n < d.node_count(); ++n)
    if (live[n]) {
      EXPECT_LE(d.fanins(n).size(), 2u);
    }
}

TEST_P(TransformRandom, ExpandXorPreservesAndRemovesXors) {
  const Network net = decompose2(random_network(5, 20, GetParam() + 2));
  const Network e = expand_xor(net);
  EXPECT_TRUE(same_function(net, e));
  const auto live = e.live_mask();
  for (NodeId n = 0; n < e.node_count(); ++n)
    if (live[n]) {
      EXPECT_FALSE(is_xor_like(e.type(n)));
    }
  // The paper's cost metric is consistent with explicit expansion.
  EXPECT_EQ(network_stats(net).gates2, network_stats(e).gates2);
}

TEST_P(TransformRandom, PermutePisRoundTrip) {
  const Network net = random_network(6, 18, GetParam() + 3);
  Rng rng(GetParam());
  std::vector<std::size_t> perm(net.pi_count());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  const Network p = permute_pis(net, perm);
  std::vector<std::size_t> inverse(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) inverse[perm[k]] = k;
  const Network back = permute_pis(p, inverse);
  EXPECT_TRUE(same_function(net, back));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Transform, StrashFoldsConstantsAndComplements) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId na = net.add_not(a);
  net.add_po(net.add_and(a, na));                    // == 0
  net.add_po(net.add_or(a, na));                     // == 1
  net.add_po(net.add_xor(a, a));                     // == 0
  net.add_po(net.add_and(a, Network::kConst1));      // == a
  net.add_po(net.add_not(net.add_not(a)));           // == a
  const Network s = strash(net);
  EXPECT_EQ(s.po(0), Network::kConst0);
  EXPECT_EQ(s.po(1), Network::kConst1);
  EXPECT_EQ(s.po(2), Network::kConst0);
  EXPECT_EQ(s.type(s.po(3)), GateType::Pi);
  EXPECT_EQ(s.type(s.po(4)), GateType::Pi);
}

TEST(Transform, StrashSharesIdenticalGates) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g1 = net.add_and(a, b);
  const NodeId g2 = net.add_and(b, a); // same gate, swapped fanins
  net.add_po(g1);
  net.add_po(g2);
  const Network s = strash(net);
  EXPECT_EQ(s.po(0), s.po(1));
}

TEST(Transform, StrashPullsInvertersOutOfXor) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  // x̄ ⊕ y == NOT(x ⊕ y): both sides must hash to complements of one node.
  net.add_po(net.add_xor(net.add_not(a), b));
  net.add_po(net.add_gate(GateType::Xnor, {a, b}));
  const Network s = strash(net);
  EXPECT_EQ(s.po(0), s.po(1));
}

TEST(Transform, SweepDropsDeadNodes) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  (void)net.add_xor(a, b); // dead
  net.add_po(net.add_and(a, b));
  const Network s = sweep(net);
  EXPECT_EQ(network_stats(s).num_xor2, 0u);
}

} // namespace
} // namespace rmsyn
