// Cut-rewriting engine tests: NPN canonicalization, the rewrite database,
// priority-cut enumeration, and the DAG-aware replacement pass (equivalence,
// monotone cost, serial-vs-pool bit-identity, governed unwinding).
#include "rewrite/rewrite.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/stats.hpp"
#include "network/transform.hpp"
#include "rewrite/cuts.hpp"
#include "rewrite/database.hpp"
#include "rewrite/npn.hpp"
#include "sched/pool.hpp"
#include "util/errors.hpp"
#include "util/governor.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

// --- NPN --------------------------------------------------------------------

TEST(Npn, ApplyMatchesDefinition) {
  // c(y) = out_neg ^ f(x), x_j = y_{perm[j]} ^ neg_j, checked minterm by
  // minterm against a direct evaluation.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const uint16_t f = static_cast<uint16_t>(rng.next() & 0xFFFF);
    rw::NpnTransform t;
    t.perm = {0, 1, 2, 3};
    for (int i = 3; i > 0; --i)
      std::swap(t.perm[i], t.perm[rng.next() % (i + 1)]);
    t.neg = static_cast<uint8_t>(rng.next() & 0xF);
    t.out_neg = (rng.next() & 1) != 0;
    const uint16_t c = rw::npn_apply(f, t);
    for (int m = 0; m < 16; ++m) {
      int x = 0;
      for (int j = 0; j < 4; ++j) {
        const bool yj = ((m >> t.perm[j]) & 1) != 0;
        if (yj != (((t.neg >> j) & 1) != 0)) x |= 1 << j;
      }
      const bool fx = ((f >> x) & 1) != 0;
      EXPECT_EQ(((c >> m) & 1) != 0, t.out_neg != fx);
    }
  }
}

TEST(Npn, CanonicalizeIsClassInvariantAndAchievable) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const uint16_t f = static_cast<uint16_t>(rng.next() & 0xFFFF);
    const rw::NpnResult r = rw::npn_canonicalize(f);
    // The returned transform really produces the canonical form.
    EXPECT_EQ(rw::npn_apply(f, r.xform), r.canon);
    // Any random NPN image of f canonicalizes to the same representative.
    rw::NpnTransform t;
    t.perm = {0, 1, 2, 3};
    for (int i = 3; i > 0; --i)
      std::swap(t.perm[i], t.perm[rng.next() % (i + 1)]);
    t.neg = static_cast<uint8_t>(rng.next() & 0xF);
    t.out_neg = (rng.next() & 1) != 0;
    EXPECT_EQ(rw::npn_canonicalize(rw::npn_apply(f, t)).canon, r.canon);
  }
}

TEST(Npn, ClassCountIs222) {
  EXPECT_EQ(rw::npn_class_count(), 222u);
}

TEST(Npn, CacheAgreesWithDirect) {
  rw::NpnCache cache;
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    const uint16_t f = static_cast<uint16_t>(rng.next() & 0xFFFF);
    const rw::NpnResult a = cache.canonicalize(f);
    const rw::NpnResult b = rw::npn_canonicalize(f);
    EXPECT_EQ(a.canon, b.canon);
    EXPECT_EQ(rw::npn_apply(f, a.xform), a.canon);
  }
}

// --- database ---------------------------------------------------------------

TEST(RewriteDb, CoversEveryClassWithCorrectStructures) {
  const rw::RewriteDb& db = rw::RewriteDb::instance();
  EXPECT_EQ(db.size(), 222u);
  const std::array<uint16_t, 4> proj = {rw::kProj4[0], rw::kProj4[1],
                                        rw::kProj4[2], rw::kProj4[3]};
  for (const rw::DbEntry& e : db.entries()) {
    // Stored function is self-canonical and the structure computes it.
    EXPECT_EQ(rw::npn_canonicalize(e.canon).canon, e.canon);
    EXPECT_EQ(rw::RewriteDb::eval_entry(e, proj), e.canon);
    EXPECT_NE(db.lookup(e.canon), nullptr);
  }
  // XOR-heavy classes keep their cheap XOR shape: 2-input XOR costs 3.
  const rw::DbEntry* x2 = db.lookup(rw::npn_canonicalize(0xAAAA ^ 0xCCCC).canon);
  ASSERT_NE(x2, nullptr);
  EXPECT_EQ(x2->cost, 3);
  const rw::DbEntry* a2 = db.lookup(rw::npn_canonicalize(0xAAAA & 0xCCCC).canon);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->cost, 1);
}

TEST(RewriteDb, SaveLoadRoundTrips) {
  const rw::RewriteDb& db = rw::RewriteDb::instance();
  std::ostringstream out;
  db.save(out);
  std::istringstream in(out.str());
  const rw::RewriteDb loaded = rw::RewriteDb::load(in);
  ASSERT_EQ(loaded.size(), db.size());
  std::ostringstream out2;
  loaded.save(out2);
  EXPECT_EQ(out.str(), out2.str());
}

TEST(RewriteDb, LoadRejectsCorruptEntries) {
  // A structurally valid line computing the WRONG function must be caught
  // by the load-time re-evaluation.
  std::istringstream wrong("0000 1 1 A 2 4 10\n");
  EXPECT_THROW(rw::RewriteDb::load(wrong), RmsynError);
  std::istringstream garbage("zzzz 1 0 2\n");
  EXPECT_THROW(rw::RewriteDb::load(garbage), RmsynError);
  std::istringstream truncated("0000 0 0");
  EXPECT_THROW(rw::RewriteDb::load(truncated), RmsynError);
}

// --- cuts -------------------------------------------------------------------

TEST(Cuts, EnumeratesCorrectTablesOnASmallCone) {
  // f = (a & b) ^ (c | d) — one 4-cut over the PIs plus smaller ones.
  Network net;
  const NodeId a = net.add_pi("a"), b = net.add_pi("b");
  const NodeId c = net.add_pi("c"), d = net.add_pi("d");
  const NodeId ab = net.add_gate(GateType::And, {a, b});
  const NodeId cd = net.add_gate(GateType::Or, {c, d});
  const NodeId root = net.add_gate(GateType::Xor, {ab, cd});
  net.add_po(root, "f");

  uint64_t kept = 0;
  const auto sets =
      rw::enumerate_cuts(net, net.topo_order(), rw::CutOptions{}, &kept);
  EXPECT_GT(kept, 0u);
  ASSERT_LT(root, sets.size());
  bool found_pi_cut = false;
  for (const rw::Cut& cut : sets[root]) {
    // Every cut's stored table must match an independent cone walk.
    uint16_t tt = 0;
    ASSERT_TRUE(rw::cut_tt(net, root, cut, &tt));
    EXPECT_EQ(tt, cut.tt);
    for (int i = 1; i < cut.nleaves; ++i)
      EXPECT_LT(cut.leaves[i - 1], cut.leaves[i]);
    if (cut.nleaves == 4 && cut.leaves[0] == a && cut.leaves[1] == b &&
        cut.leaves[2] == c && cut.leaves[3] == d) {
      found_pi_cut = true;
      EXPECT_EQ(cut.tt, (0xAAAA & 0xCCCC) ^ (0xF0F0 | 0xFF00));
    }
  }
  EXPECT_TRUE(found_pi_cut);
  // The trivial cut {root} is always kept.
  bool found_trivial = false;
  for (const rw::Cut& cut : sets[root])
    found_trivial |= cut.nleaves == 1 && cut.leaves[0] == root;
  EXPECT_TRUE(found_trivial);
}

TEST(Cuts, ComposedTablesMatchConeWalkOnTable2AndArithmetic) {
  // enumerate_cuts composes each cut's table from its fanin cuts' tables;
  // the phase-C revalidation re-derives it by walking the cone. The two
  // must agree on every cut the enumeration keeps, over all 4 variables.
  std::vector<std::string> names = benchmark_names();
  names.push_back("adder64");
  names.push_back("mult16");
  for (const std::string& name : names) {
    const Network net = decompose2(strash(make_benchmark(name).spec));
    const auto order = net.topo_order();
    const auto sets = rw::enumerate_cuts(net, order, rw::CutOptions{});
    for (const NodeId root : order) {
      for (std::size_t i = 0; i < sets[root].size(); ++i) {
        const rw::Cut& cut = sets[root][i];
        for (int j = 1; j < cut.nleaves; ++j)
          ASSERT_LT(cut.leaves[j - 1], cut.leaves[j])
              << name << " root " << root << " cut " << i;
        uint16_t want = 0;
        ASSERT_TRUE(rw::cut_tt(net, root, cut, &want))
            << name << " root " << root << " cut " << i;
        ASSERT_EQ(cut.tt, want) << name << " root " << root << " cut " << i;
      }
    }
  }
}

// --- the pass ---------------------------------------------------------------

void expect_identical(const Network& a, const Network& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId i = 0; i < a.node_count(); ++i) {
    ASSERT_EQ(a.is_dead(i), b.is_dead(i)) << "node " << i;
    if (a.is_dead(i)) continue;
    ASSERT_EQ(a.type(i), b.type(i)) << "node " << i;
    const FaninSpan fa = a.fanins(i), fb = b.fanins(i);
    ASSERT_EQ(fa.size(), fb.size()) << "node " << i;
    for (std::size_t j = 0; j < fa.size(); ++j)
      ASSERT_EQ(fa[j], fb[j]) << "node " << i << " fanin " << j;
  }
}

TEST(Rewrite, PreservesEquivalenceAndNeverWorsensCost) {
  for (const char* name : {"rd53", "cc", "cm85a", "mlp4", "pm1", "z4ml"}) {
    const Benchmark bench = make_benchmark(name);
    Network net = bench.spec;
    const NetworkStats before = network_stats(net);
    const rw::RewriteStats st = rw::rewrite_network(net);
    const NetworkStats after = network_stats(net);
    EXPECT_TRUE(net.check_invariants().empty()) << name;
    EXPECT_LE(after.lits, before.lits) << name;
    EXPECT_EQ(st.lits_before, before.lits) << name;
    EXPECT_EQ(st.lits_after, after.lits) << name;
    const EquivResult eq = check_equivalence(bench.spec, net);
    EXPECT_TRUE(eq.equivalent) << name << ": " << eq.reason;
    // PI/PO interface is untouched.
    EXPECT_EQ(net.pi_count(), bench.spec.pi_count()) << name;
    EXPECT_EQ(net.po_count(), bench.spec.po_count()) << name;
  }
}

TEST(Rewrite, FindsKnownSavings) {
  // A mux built the expensive way: (s & a) | (~s & b) as 2-input gates
  // costs 3 AND-equivalents + inverter; the database mux structure costs 3
  // as well, but a chain of two identical muxes sharing s rewrites with
  // sharing. Guard simply that SOME benchmark yields replacements.
  const Benchmark bench = make_benchmark("cc");
  Network net = bench.spec;
  const rw::RewriteStats st = rw::rewrite_network(net);
  EXPECT_GT(st.db_hits, 0u);
  EXPECT_GT(st.replacements, 0u);
  EXPECT_GT(st.gain_lits, 0u);
  EXPECT_EQ(st.sim_rejects, 0u);
  EXPECT_EQ(st.bdd_rejects, 0u);
}

TEST(Rewrite, PoolRunsAreBitIdenticalToSerial) {
  for (const char* name : {"cc", "mlp4", "adder8"}) {
    const Benchmark bench = make_benchmark(name);
    Network serial = bench.spec;
    rw::RewriteOptions opt;
    rw::rewrite_network(serial, opt);
    for (int jobs : {2, 4}) {
      Network par = bench.spec;
      ThreadPool pool(jobs);
      rw::RewriteOptions popt;
      popt.pool = &pool;
      rw::rewrite_network(par, popt);
      expect_identical(serial, par);
    }
  }
}

TEST(Rewrite, GovernedTripsLeaveAValidEquivalentNetwork) {
  // Sweep tiny step budgets: wherever the pass trips, the network must
  // remain structurally valid and equivalent to the input (replacements
  // are atomic: verified-then-committed or fully reverted).
  const Benchmark bench = make_benchmark("cm85a");
  for (const uint64_t steps : {1ull, 5ull, 25ull, 125ull, 625ull}) {
    ResourceLimits limits;
    limits.step_limit = steps;
    ResourceGovernor gov(limits);
    Network net = bench.spec;
    rw::RewriteOptions opt;
    opt.governor = &gov;
    const rw::RewriteStats st = rw::rewrite_network(net, opt);
    (void)st;
    EXPECT_TRUE(net.check_invariants().empty()) << "steps=" << steps;
    const EquivResult eq = check_equivalence(bench.spec, net);
    EXPECT_TRUE(eq.equivalent) << "steps=" << steps << ": " << eq.reason;
  }
}

TEST(Rewrite, HonorsExplicitDbPathAndRejectsMissingFile) {
  rw::RewriteOptions opt;
  opt.db_path = "/nonexistent/rewrite_db.txt";
  Network net = make_benchmark("rd53").spec;
  EXPECT_THROW(rw::rewrite_network(net, opt), RmsynError);
}

} // namespace
} // namespace rmsyn
