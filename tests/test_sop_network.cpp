// SopNetwork (the SIS network model) tests: conversion round-trips,
// collapse/flatten semantics, the reader index, compaction and factoring.
#include "baseline/sop_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baseline/factor.hpp"
#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/transform.hpp"
#include "sop/minimize.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

Network small_multilevel() {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId t = net.add_and(a, b);
  net.add_po(net.add_or(t, c), "f");
  net.add_po(net.add_xor(t, c), "g");
  return net;
}

TEST(SopNetwork, FromNetworkRoundTrip) {
  const Network net = small_multilevel();
  const SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  const Network back = sn.to_network();
  EXPECT_TRUE(check_equivalence(net, back).equivalent);
  EXPECT_GT(sn.literal_count(), 0);
}

TEST(SopNetwork, CollapseNodePreservesFunction) {
  const Network net = small_multilevel();
  SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  // Collapse the first internal non-PO node we can find.
  for (const int n : sn.topo_nodes()) {
    bool is_po = false;
    for (const int po : sn.po_vars()) is_po |= po == n;
    if (!is_po) {
      EXPECT_TRUE(sn.collapse_node(n));
      break;
    }
  }
  EXPECT_TRUE(check_equivalence(net, sn.to_network()).equivalent);
}

TEST(SopNetwork, FlattenReachesTwoLevel) {
  const Network net = small_multilevel();
  SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  EXPECT_TRUE(sn.flatten(1000));
  for (const int po : sn.po_vars())
    for (const int f : sn.fanins(po)) EXPECT_TRUE(sn.is_pi(f));
  EXPECT_TRUE(check_equivalence(net, sn.to_network()).equivalent);
}

TEST(SopNetwork, FlattenBailsOnCubeCap) {
  // A 12-input parity chain explodes exponentially when flattened.
  const Network net = decompose2(strash(make_benchmark("parity").spec));
  SopNetwork sn = SopNetwork::from_network(net);
  EXPECT_FALSE(sn.flatten(64));
}

TEST(SopNetwork, FanoutCountsIncludePos) {
  const Network net = small_multilevel();
  const SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  const auto fo = sn.fanout_counts();
  for (const int po : sn.po_vars()) EXPECT_GE(fo[static_cast<std::size_t>(po)], 1);
}

TEST(SopNetwork, ConstantOutputs) {
  Network net;
  const NodeId a = net.add_pi();
  net.add_po(Network::kConst1, "one");
  net.add_po(net.add_and(a, net.add_not(a)), "zero");
  const SopNetwork sn = SopNetwork::from_network(strash(net));
  const Network back = sn.to_network();
  EXPECT_TRUE(check_equivalence(strash(net), back).equivalent);
}

TEST(SopNetwork, CollapseGrowthPredictsXorBlowup) {
  // An XOR node feeding an XOR reader: collapsing doubles the cubes, so
  // the growth value must be positive (keep the node) — this is what
  // preserves parity chains in the baseline.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  net.add_po(net.add_xor(net.add_xor(a, b), c));
  SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  int inner = -1;
  for (const int n : sn.topo_nodes()) {
    bool is_po = false;
    for (const int po : sn.po_vars()) is_po |= po == n;
    if (!is_po) inner = n;
  }
  ASSERT_GE(inner, 0);
  EXPECT_GT(sn.collapse_growth(inner), 0);

  // A buffer-like single-literal node must have non-positive growth.
  Cover wire(sn.num_vars());
  Cube cb(sn.num_vars());
  cb.add_pos(0);
  wire.add(cb);
  const int w = sn.add_node(wire);
  Cover reader(sn.num_vars());
  Cube rc(sn.num_vars());
  rc.add_pos(w);
  reader.add(rc);
  sn.add_po(sn.add_node(reader), "p");
  EXPECT_LE(sn.collapse_growth(w), 0);
}

bool is_po(const SopNetwork& sn, int n) {
  const auto& pos = sn.po_vars();
  return std::find(pos.begin(), pos.end(), n) != pos.end();
}

// flatten as a restart loop: after every collapse, rerun topo_nodes() from
// the start and rescan every cover against the cap. flatten must collapse
// the same nodes in the same order and stop at the same step.
bool flatten_oracle(SopNetwork& sn, std::size_t max_cubes, int* collapses) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const int n : sn.topo_nodes()) {
      if (is_po(sn, n)) continue;
      if (!sn.collapse_node(n)) return false;
      ++*collapses;
      changed = true;
      for (int v = sn.num_pis(); v < sn.num_vars(); ++v)
        if (sn.cover_of(v).size() > max_cubes) return false;
      break;
    }
  }
  for (const int po : sn.po_vars())
    for (const int f : sn.fanins(po))
      if (!sn.is_pi(f)) return false;
  return true;
}

// A cube over the PIs only, as espresso text.
std::string pi_text(const Cube& c, int num_pis) {
  const std::string s = c.to_string();
  EXPECT_EQ(s.find_first_not_of('-', static_cast<std::size_t>(num_pis)),
            std::string::npos);
  return s.substr(0, static_cast<std::size_t>(num_pis));
}

class FlattenOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(FlattenOracle, CollapsesLikeTheRestartLoop) {
  const Network net = decompose2(strash(make_benchmark(GetParam()).spec));
  SopNetwork want = SopNetwork::from_network(net);
  SopNetwork got = want;
  int collapses = 0;
  const bool flat = flatten_oracle(want, 1500, &collapses);
  ASSERT_EQ(got.flatten(1500), flat);
  if (!flat) return;
  // Only the nodes the oracle kept are left in the variable space.
  EXPECT_EQ(got.num_vars(),
            got.num_pis() + static_cast<int>(want.node_count()) - collapses);
  ASSERT_EQ(got.po_vars().size(), want.po_vars().size());
  for (std::size_t i = 0; i < got.po_vars().size(); ++i) {
    const auto& g = got.cover_of(got.po_vars()[i]).cubes();
    const auto& w = want.cover_of(want.po_vars()[i]).cubes();
    ASSERT_EQ(g.size(), w.size()) << "po " << i;
    for (std::size_t j = 0; j < g.size(); ++j)
      ASSERT_EQ(pi_text(g[j], got.num_pis()), pi_text(w[j], want.num_pis()))
          << "po " << i << " cube " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, FlattenOracle,
                         ::testing::ValuesIn(benchmark_names()));

TEST(SopNetwork, FlattenLeavesOnlyLiveVariables) {
  const std::pair<const char*, int> cases[] = {
      {"sym10", 11}, {"addm4", 17}, {"9sym", 10}};
  for (const auto& [name, vars] : cases) {
    const Network net = decompose2(strash(make_benchmark(name).spec));
    SopNetwork sn = SopNetwork::from_network(net);
    ASSERT_TRUE(sn.flatten(1500)) << name;
    EXPECT_EQ(sn.num_vars(), vars) << name;
    EXPECT_EQ(sn.num_vars(),
              sn.num_pis() + static_cast<int>(sn.topo_nodes().size()))
        << name;
    EXPECT_TRUE(check_equivalence(net, sn.to_network()).equivalent) << name;
  }
}

Network random_spec(Rng& rng, int npis, int ngates) {
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < npis; ++i) pool.push_back(net.add_pi());
  for (int g = 0; g < ngates; ++g) {
    const NodeId a = pool[rng.below(pool.size())];
    const NodeId b = pool[rng.below(pool.size())];
    NodeId n;
    switch (rng.below(5)) {
      case 0: n = net.add_and(a, b); break;
      case 1: n = net.add_or(a, b); break;
      case 2: n = net.add_xor(a, b); break;
      case 3: n = net.add_gate(GateType::Nand, {a, b}); break;
      default: n = net.add_gate(GateType::Nor, {net.add_not(a), b}); break;
    }
    pool.push_back(n);
  }
  for (int o = 0; o < 3; ++o)
    net.add_po(pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  return net;
}

// Exhaustive Network::eval comparison over every PI assignment.
bool same_function(const Network& a, const Network& b) {
  const std::size_t n = a.pi_count();
  std::vector<bool> in(n);
  for (uint64_t m = 0; m < (uint64_t{1} << n); ++m) {
    for (std::size_t i = 0; i < n; ++i) in[i] = ((m >> i) & 1) != 0;
    if (a.eval(in) != b.eval(in)) return false;
  }
  return true;
}

// The reader index as a scan of every fanin list would build it.
void expect_readers_match_fanins(const SopNetwork& sn) {
  std::vector<std::vector<int>> want(sn.node_count());
  for (int u = sn.num_pis(); u < sn.num_vars(); ++u)
    for (const int f : sn.fanins(u))
      if (!sn.is_pi(f))
        want[static_cast<std::size_t>(f - sn.num_pis())].push_back(u);
  for (int v = sn.num_pis(); v < sn.num_vars(); ++v) {
    std::vector<int> got = sn.readers(v);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want[static_cast<std::size_t>(v - sn.num_pis())])
        << "node " << v;
  }
}

TEST(SopNetwork, ReaderIndexFollowsCollapseSetCoverAndCompact) {
  Rng rng(2024);
  for (int iter = 0; iter < 40; ++iter) {
    const Network spec = random_spec(rng, 6, 24);
    SopNetwork sn = SopNetwork::from_network(decompose2(strash(spec)));
    expect_readers_match_fanins(sn);
    for (int step = 0; step < 12; ++step) {
      std::vector<int> inner;
      for (const int n : sn.topo_nodes())
        if (!is_po(sn, n)) inner.push_back(n);
      const auto pick = rng.below(4);
      if (pick == 0 && !inner.empty()) {
        (void)sn.collapse_node(inner[rng.below(inner.size())]);
      } else if (pick == 1 && !inner.empty()) {
        // Shannon-expand a live node on a lower PI or live node x it may
        // not read: f = f·x + f·x̄ adds x to its fanins without changing f.
        // Fanins always have lower ids than their readers, so no cycle.
        const int n = inner[rng.below(inner.size())];
        std::vector<int> lower;
        for (int v = 0; v < sn.num_pis(); ++v) lower.push_back(v);
        for (const int v : inner)
          if (v < n) lower.push_back(v);
        const int x = lower[rng.below(lower.size())];
        const Cover& f = sn.cover_of(n);
        sn.set_cover(n, (f & Cover::literal(sn.num_vars(), x, true)) |
                            (f & Cover::literal(sn.num_vars(), x, false)));
      } else if (pick == 2 && sn.node_count() > 0) {
        const int n = sn.num_pis() +
                      static_cast<int>(rng.below(sn.node_count()));
        sn.set_cover(n, espresso_lite(sn.cover_of(n)));
      } else {
        const std::size_t live = sn.topo_nodes().size();
        sn.compact();
        EXPECT_GE(sn.node_count(), live);
      }
      expect_readers_match_fanins(sn);
      ASSERT_TRUE(same_function(spec, sn.to_network()))
          << "iter " << iter << " step " << step;
    }
  }
}

TEST(Factor, BuildFactoredMatchesCover) {
  Rng rng(777);
  for (int iter = 0; iter < 30; ++iter) {
    const int n = 5;
    Cover f(n);
    const int ncubes = 1 + static_cast<int>(rng.below(7));
    for (int c = 0; c < ncubes; ++c) {
      Cube cube(n);
      for (int v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r == 0) cube.add_pos(v);
        else if (r == 1) cube.add_neg(v);
      }
      f.add(std::move(cube));
    }
    Network net;
    std::vector<NodeId> vars;
    for (int v = 0; v < n; ++v) vars.push_back(net.add_pi());
    net.add_po(build_factored(net, f, vars));
    EXPECT_TRUE(check_against_tts(net, {f.to_truth_table()}).equivalent);
  }
}

TEST(Factor, FactoredLiteralsNoWorseThanFlat) {
  // (ab + ac) factors to a(b+c): 3 factored literals vs 4 flat.
  Cover f(3);
  f.add(Cube::parse("11-"));
  f.add(Cube::parse("1-1"));
  EXPECT_EQ(factored_literals(f), 3);
  EXPECT_LE(factored_literals(f), f.literal_count());
}

TEST(Factor, ConstantsAndEmptyCovers) {
  Network net;
  std::vector<NodeId> vars{net.add_pi()};
  EXPECT_EQ(build_factored(net, Cover(1), vars), Network::kConst0);
  EXPECT_EQ(build_factored(net, Cover::constant(1, true), vars),
            Network::kConst1);
  EXPECT_EQ(factored_literals(Cover(1)), 0);
  EXPECT_EQ(factored_literals(Cover::constant(1, true)), 0);
}

} // namespace
} // namespace rmsyn
