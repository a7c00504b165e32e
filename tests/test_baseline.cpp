// Baseline (SIS-style conventional synthesis) integration tests.
#include "baseline/script.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "baseline/divide.hpp"
#include "baseline/extract.hpp"
#include "baseline/kernels.hpp"
#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/stats.hpp"
#include "network/transform.hpp"
#include "sop/minimize.hpp"

namespace rmsyn {
namespace {

class BaselineCircuit : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineCircuit, EquivalentToSpec) {
  const Benchmark bench = make_benchmark(GetParam());
  BaselineReport rep;
  const Network out = baseline_synthesize(bench.spec, {}, &rep);
  const auto check = check_equivalence(bench.spec, out);
  EXPECT_TRUE(check.equivalent) << check.reason;
  EXPECT_GT(rep.sop_lits_initial, 0);
}

INSTANTIATE_TEST_SUITE_P(SmallCircuits, BaselineCircuit,
                         ::testing::Values("z4ml", "adr4", "rd53", "majority",
                                           "cm82a", "f2", "bcd-div3", "tcon",
                                           "pcle", "cm85a", "squar5", "rd73",
                                           "co14", "shift", "i5", "m181",
                                           "pcler8", "cm163a", "mlp4",
                                           "my_adder", "parity", "i1", "cc"));

TEST(Baseline, ExtractionReducesSopLiterals) {
  const Benchmark bench = make_benchmark("adr4");
  BaselineReport rep;
  (void)baseline_synthesize(bench.spec, {}, &rep);
  EXPECT_LT(rep.sop_lits_final, rep.sop_lits_initial);
  EXPECT_GT(rep.nodes_extracted, 0);
}

TEST(Baseline, ExtractKernelsSharesAcrossNodes) {
  // Two nodes both containing (c+d): one kernel extraction suffices.
  SopNetwork sn(4);
  Cover f1(4);
  f1.add(Cube::parse("1-1-"));
  f1.add(Cube::parse("1--1")); // a(c+d)
  Cover f2(4);
  f2.add(Cube::parse("-11-"));
  f2.add(Cube::parse("-1-1")); // b(c+d)
  sn.add_po(sn.add_node(f1), "f1");
  sn.add_po(sn.add_node(f2), "f2");
  const int before = sn.literal_count();
  const int created = extract_kernels(sn);
  EXPECT_GE(created, 1);
  EXPECT_LT(sn.literal_count(), before);
  // Function preserved.
  Network net = sn.to_network();
  Cover g1(4);
  g1.add(Cube::parse("1-1-"));
  g1.add(Cube::parse("1--1"));
  Cover g2(4);
  g2.add(Cube::parse("-11-"));
  g2.add(Cube::parse("-1-1"));
  EXPECT_TRUE(check_against_tts(net, {g1.to_truth_table(), g2.to_truth_table()})
                  .equivalent);
}

TEST(Baseline, ExtractCubesSharesPairs) {
  // Three cubes all containing the pair ab.
  SopNetwork sn(4);
  Cover f(4);
  f.add(Cube::parse("111-"));
  f.add(Cube::parse("11-1"));
  f.add(Cube::parse("1100"));
  sn.add_po(sn.add_node(f), "f");
  const int created = extract_cubes(sn);
  EXPECT_GE(created, 1);
  Cover orig(4);
  orig.add(Cube::parse("111-"));
  orig.add(Cube::parse("11-1"));
  orig.add(Cube::parse("1100"));
  EXPECT_TRUE(
      check_against_tts(sn.to_network(), {orig.to_truth_table()}).equivalent);
}

TEST(Baseline, NoXorGatesInResult) {
  // The conventional flow is pure AND/OR factorization (the paper's
  // premise): XOR can only appear if the spec's structure is kept, which
  // flattening removes on small circuits.
  const Benchmark bench = make_benchmark("rd53");
  const Network out = baseline_synthesize(bench.spec, {}, nullptr);
  EXPECT_EQ(network_stats(out).num_xor2, 0u);
}

TEST(Baseline, RedRemovalNeverIncreasesSize) {
  BaselineOptions with, without;
  without.run_redundancy_removal = false;
  const Benchmark bench = make_benchmark("cm85a");
  BaselineReport r1, r2;
  (void)baseline_synthesize(bench.spec, with, &r1);
  (void)baseline_synthesize(bench.spec, without, &r2);
  EXPECT_LE(r1.stats.gates2, r2.stats.gates2);
}

TEST(Baseline, MultilevelInputWhenFlattenBails) {
  // parity cannot be flattened at the default cap; the baseline must still
  // produce an equivalent circuit from the structural network.
  const Benchmark bench = make_benchmark("xor10");
  const Network out = baseline_synthesize(bench.spec, {}, nullptr);
  EXPECT_TRUE(check_equivalence(bench.spec, out).equivalent);
}

// --- Oracle: kernel extraction that recomputes every census -----------------
//
// extract_kernels keeps each node's kernels from round to round. This is
// the loop as it was, calling kernels() on every live node in every round;
// both must leave the same covers behind.

struct KernelKeyOracle {
  std::vector<std::string> cubes; // sorted espresso strings
  bool operator<(const KernelKeyOracle& o) const { return cubes < o.cubes; }
};

int extract_kernels_oracle(SopNetwork& sn) {
  // Espresso strings order '-' < '0' < '1', as the kernel keys do.
  const auto canon = [](const Cover& c) {
    KernelKeyOracle k;
    for (const auto& cube : c.cubes()) k.cubes.push_back(cube.to_string());
    std::sort(k.cubes.begin(), k.cubes.end());
    return k;
  };
  int created = 0;
  for (int round = 0; round < 64; ++round) {
    struct Agg {
      Cover kernel{0};
      std::vector<int> nodes;
      int saving = 0;
      int lits = 0;
    };
    std::map<KernelKeyOracle, Agg> agg;
    for (const int n : sn.topo_nodes()) {
      const Cover& f = sn.cover_of(n);
      if (f.size() < 2) continue;
      for (const auto& k : kernels(f, 64)) {
        if (k.kernel.size() < 2) continue;
        auto& a = agg[canon(k.kernel)];
        if (a.nodes.empty()) {
          a.kernel = k.kernel;
          a.lits = k.kernel.literal_count();
        }
        const int co_lits = k.co_kernel.literal_count();
        a.saving += static_cast<int>(k.kernel.size()) * co_lits + a.lits -
                    co_lits - 1;
        if (a.nodes.empty() || a.nodes.back() != n) a.nodes.push_back(n);
      }
    }
    const Agg* best = nullptr;
    int best_value = 0;
    for (const auto& [key, a] : agg) {
      if (a.saving - a.lits > best_value) {
        best_value = a.saving - a.lits;
        best = &a;
      }
    }
    if (best == nullptr) break;
    Cover divisor = best->kernel;
    const std::vector<int> targets = best->nodes;
    const int w = sn.add_node(divisor);
    divisor.resize_vars(sn.num_vars());
    bool any = false;
    for (const int n : targets) {
      const auto [q, r] = divide(sn.cover_of(n), divisor);
      if (q.empty()) continue;
      Cover next(sn.num_vars());
      Cube wlit(sn.num_vars());
      wlit.add_pos(w);
      for (const auto& qc : q.cubes()) next.add(qc.intersect(wlit));
      for (const auto& rc : r.cubes()) next.add(rc);
      sn.set_cover(n, single_cube_containment(next));
      any = true;
    }
    if (!any) break;
    ++created;
  }
  return created;
}

class BaselineExtractOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineExtractOracle, CachedKernelsExtractLikeRecomputedOnes) {
  // The SOP network the extract stage sees: flattened where it fits the
  // baseline's 1500-cube cap, every node simplified.
  const Benchmark bench = make_benchmark(GetParam());
  SopNetwork sn = SopNetwork::from_network(decompose2(strash(bench.spec)));
  SopNetwork flat = sn;
  if (flat.flatten(1500)) sn = std::move(flat);
  for (const int n : sn.topo_nodes())
    if (sn.cover_of(n).size() > 1) sn.set_cover(n, espresso_lite(sn.cover_of(n)));

  SopNetwork cached = sn, recomputed = sn;
  const int created = extract_kernels(cached);
  EXPECT_GT(created, 1);
  EXPECT_EQ(created, extract_kernels_oracle(recomputed));
  ASSERT_EQ(cached.num_vars(), recomputed.num_vars());
  EXPECT_EQ(cached.topo_nodes(), recomputed.topo_nodes());
  for (int v = cached.num_pis(); v < cached.num_vars(); ++v) {
    const auto& got = cached.cover_of(v).cubes();
    const auto& want = recomputed.cover_of(v).cubes();
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "node " << v << " cube " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, BaselineExtractOracle,
                         ::testing::Values("sym10", "addm4", "9sym"));

} // namespace
} // namespace rmsyn
