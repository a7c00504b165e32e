// Incremental simulation engine tests (sim/sim.hpp): the cached state and
// its cone-limited resims must be bit-identical to a fresh full simulate()
// after arbitrary edits, fault dropping must not change the detected set,
// parallel fault chunks must match serial exactly (results AND counters),
// and resub's signature prefilter must not perturb the merged network.
#include "sim/sim.hpp"

#include <gtest/gtest.h>

#include "benchgen/spec.hpp"
#include "core/redundancy.hpp"
#include "core/resub.hpp"
#include "core/synth.hpp"
#include "network/io.hpp"
#include "network/transform.hpp"
#include "rewrite/rewrite.hpp"
#include "sched/pool.hpp"
#include "testability/faults.hpp"
#include "util/governor.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

/// Every node a fresh simulate() evaluates must carry the same value in
/// the cached state (dead nodes stay all-zero on both sides).
void expect_state_matches_full(const SimState& sim, const Network& net,
                               const PatternSet& patterns,
                               const std::string& context) {
  const auto full = simulate(net, patterns);
  for (const NodeId n : net.topo_order())
    ASSERT_EQ(sim.value(n), full[n]) << context << ": node " << n;
}

TEST(SimState, MatchesFullSimulateOnEveryBenchmark) {
  for (const auto& name : benchmark_names()) {
    const Network net = make_benchmark(name).spec;
    const PatternSet patterns =
        random_patterns(net.pi_count(), 256, 0xABCD0 + net.pi_count());
    SimState sim(net, patterns);
    expect_state_matches_full(sim, net, patterns, name);
  }
}

TEST(SimState, HandlesNonWordMultiplePatternCounts) {
  const Network net = make_benchmark("z4ml").spec;
  for (const std::size_t np : {1u, 63u, 64u, 65u, 130u}) {
    const PatternSet patterns = random_patterns(net.pi_count(), np, 77);
    SimState sim(net, patterns);
    expect_state_matches_full(sim, net, patterns, "np=" + std::to_string(np));
  }
}

/// Applies one random structural edit to a gate and returns the dirty node.
/// Targets and fanins are restricted to the ORIGINAL id range (ids below
/// `orig_count`), fanins strictly below the target: every edge then drops a
/// potential (original id, or target-id-minus-half for a fresh inverter),
/// so no edit sequence can close a cycle. Fresh inverters still land ABOVE
/// the dirty node in id order — exactly the case where node-id order stops
/// being a topo order and the engine's level repair has to kick in.
NodeId random_edit(Network& net, NodeId orig_count, Rng& rng) {
  std::vector<NodeId> gates;
  for (NodeId n = 2; n < orig_count; ++n)
    if (net.type(n) != GateType::Pi) gates.push_back(n);
  const NodeId n = gates[rng.next() % gates.size()];
  const auto pick_below = [&]() -> NodeId {
    return static_cast<NodeId>(rng.next() % n); // original id < n
  };
  static const GateType kTypes[] = {GateType::And,  GateType::Or,
                                    GateType::Xor,  GateType::Nand,
                                    GateType::Nor,  GateType::Xnor,
                                    GateType::Not,  GateType::Buf};
  const GateType t = kTypes[rng.next() % 8];
  if (t == GateType::Not || t == GateType::Buf) {
    net.rewrite_gate(n, t, {pick_below()});
  } else if (rng.next() % 4 == 0) {
    // New higher-id inverter feeding the rewritten (lower-id) gate.
    const NodeId inv = net.add_not(pick_below());
    net.rewrite_gate(n, t, {pick_below(), inv});
  } else {
    net.rewrite_gate(n, t, {pick_below(), pick_below()});
  }
  return n;
}

TEST(SimState, IncrementalResimMatchesFullAfterRandomEdits) {
  for (const auto& name : {"z4ml", "f2", "adr4", "majority"}) {
    Network net = make_benchmark(name).spec;
    const PatternSet patterns = random_patterns(net.pi_count(), 192, 0xE417);
    SimState sim(net, patterns);
    const NodeId orig_count = static_cast<NodeId>(net.node_count());
    Rng rng(0x5EED ^ net.node_count());
    for (int round = 0; round < 60; ++round) {
      const NodeId dirty = random_edit(net, orig_count, rng);
      sim.resimulate(dirty);
      expect_state_matches_full(sim, net, patterns,
                                std::string(name) + " round " +
                                    std::to_string(round));
    }
    EXPECT_GT(sim.stats().incr_resims, 0u);
  }
}

TEST(SimState, MultiNodeEditsSettleInOneWave) {
  Network net = make_benchmark("my_adder").spec;
  const PatternSet patterns = random_patterns(net.pi_count(), 128, 0xBEE);
  SimState sim(net, patterns);
  const NodeId orig_count = static_cast<NodeId>(net.node_count());
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    std::vector<NodeId> dirty;
    for (int k = 0; k < 3; ++k)
      dirty.push_back(random_edit(net, orig_count, rng));
    sim.resimulate(dirty);
    expect_state_matches_full(sim, net, patterns,
                              "round " + std::to_string(round));
  }
}

TEST(SimState, RevertRestoresValuesWithDyingEvents) {
  Network net = make_benchmark("f2").spec;
  const PatternSet patterns = random_patterns(net.pi_count(), 256, 9);
  SimState sim(net, patterns);
  const auto golden = sim.po_values();
  // Find a 2-fanin gate, knock one fanin out, then revert.
  for (NodeId n = 2; n < net.node_count(); ++n) {
    if (net.type(n) == GateType::Pi || net.fanins(n).size() != 2) continue;
    const GateType t = net.type(n);
    const std::vector<NodeId> saved = net.fanins(n);
    net.rewrite_gate(n, GateType::Buf, {saved[0]});
    sim.resimulate(n);
    net.rewrite_gate(n, t, saved);
    sim.resimulate(n);
    break;
  }
  EXPECT_TRUE(sim.po_values_match(golden));
  expect_state_matches_full(sim, net, patterns, "after revert");
}

void expect_same_result(const FaultSimResult& a, const FaultSimResult& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.detected, b.detected);
  ASSERT_EQ(a.undetected.size(), b.undetected.size());
  for (std::size_t i = 0; i < a.undetected.size(); ++i) {
    EXPECT_EQ(a.undetected[i].node, b.undetected[i].node);
    EXPECT_EQ(a.undetected[i].fanin_index, b.undetected[i].fanin_index);
    EXPECT_EQ(a.undetected[i].stuck_value, b.undetected[i].stuck_value);
  }
}

TEST(FaultSim, DroppingAndConeLimitingMatchFullResim) {
  for (const auto& name : benchmark_names()) {
    const Network net = decompose2(strash(make_benchmark(name).spec));
    // 520 patterns = 3 blocks of 256/256/8 when dropping.
    const PatternSet patterns = random_patterns(net.pi_count(), 520, 0xFA17);
    const FaultSimResult full = fault_simulate_full(net, patterns);
    FaultSimOptions drop;
    const FaultSimResult incr = fault_simulate(net, patterns, drop);
    FaultSimOptions nodrop;
    nodrop.drop_faults = false;
    const FaultSimResult mono = fault_simulate(net, patterns, nodrop);
    expect_same_result(full, incr);
    expect_same_result(full, mono);
  }
}

// The raw specs keep their n-ary gates, some wider than the inline fanin
// buffer; 300 patterns end the second block in a partial word.
TEST(FaultSim, RegionTracingMatchesFullResimOnRawSpecs) {
  for (const auto& name : benchmark_names()) {
    const Network net = make_benchmark(name).spec;
    const PatternSet patterns = random_patterns(net.pi_count(), 300, 0x5EC5);
    SCOPED_TRACE(name);
    expect_same_result(fault_simulate_full(net, patterns),
                       fault_simulate(net, patterns));
  }
}

// Every structural corner of region tracing in one network, under every
// input vector: a pin read twice (AND(a,a), XOR(b,b)), a 3-input NOR, a PO
// that also feeds gates, one node driving two POs, a NOT before a NAND,
// and constant fanins.
TEST(FaultSim, RegionTracingMatchesFullResimOnEdgeNetwork) {
  Network net;
  const NodeId a = net.add_pi("a"), b = net.add_pi("b"), c = net.add_pi("c"),
               d = net.add_pi("d"), e = net.add_pi("e");
  const NodeId aa = net.add_gate(GateType::And, {a, a});
  const NodeId bb = net.add_gate(GateType::Xor, {b, b});
  const NodeId nor3 = net.add_gate(GateType::Nor, {a, c, d});
  const NodeId nand = net.add_gate(GateType::Nand, {net.add_not(c), d});
  const NodeId po_mid = net.add_gate(GateType::Or, {aa, bb, nand});
  const NodeId reads_po = net.add_gate(GateType::And, {po_mid, e});
  const NodeId with_const =
      net.add_gate(GateType::Or, {nor3, net.constant(false)});
  const NodeId twice = net.add_gate(
      GateType::Xnor, {reads_po, with_const, net.constant(true)});
  net.add_po(po_mid, "mid");
  net.add_po(twice, "x");
  net.add_po(twice, "y");
  net.add_po(net.add_gate(GateType::And, {bb, e}), "z");

  PatternSet patterns(net.pi_count(), 32);
  for (std::size_t p = 0; p < 32; ++p)
    for (std::size_t i = 0; i < net.pi_count(); ++i)
      patterns.bits[i].set(p, (p >> i) & 1);
  const FaultSimResult full = fault_simulate_full(net, patterns);
  expect_same_result(full, fault_simulate(net, patterns));
  EXPECT_FALSE(full.undetected.empty()); // XOR(b,b) is redundant
  EXPECT_LT(full.undetected.size(), full.total / 2);
}

// adder64 and mult16 as the arith-scale benchmark ships them: rewritten,
// then through the governed XOR-redundancy pass.
TEST(FaultSim, RegionTracingMatchesFullResimOnRewrittenArithmetic) {
  for (const auto& name : {"adder64", "mult16"}) {
    Network net = make_benchmark(name).spec;
    rw::rewrite_network(net);
    ResourceLimits lim;
    lim.step_limit = 1'000'000;
    ResourceGovernor gov(lim);
    RedundancyOptions ro;
    ro.governor = &gov;
    ro.max_patterns = 1024;
    const Network out = remove_xor_redundancy(net, {}, ro, nullptr);
    // 520 patterns = 3 blocks of 256/256/8.
    const PatternSet patterns = random_patterns(out.pi_count(), 520, 0xA417);
    SCOPED_TRACE(name);
    expect_same_result(fault_simulate_full(out, patterns),
                       fault_simulate(out, patterns));
  }
}

TEST(FaultSim, ParallelChunksMatchSerialBitIdentically) {
  const Network net = decompose2(strash(make_benchmark("my_adder").spec));
  const PatternSet patterns = random_patterns(net.pi_count(), 1024, 0x9A9A);
  SimStats serial_stats;
  FaultSimOptions serial;
  serial.stats = &serial_stats;
  const FaultSimResult a = fault_simulate(net, patterns, serial);

  ThreadPool pool(3);
  SimStats par_stats;
  FaultSimOptions parallel;
  parallel.pool = &pool;
  parallel.stats = &par_stats;
  const FaultSimResult b = fault_simulate(net, patterns, parallel);

  expect_same_result(a, b);
  // Counters are per-region sums, so chunking must not change them either.
  EXPECT_EQ(serial_stats.fault_probes, par_stats.fault_probes);
  EXPECT_EQ(serial_stats.cone_nodes, par_stats.cone_nodes);
  EXPECT_EQ(serial_stats.faults_dropped, par_stats.faults_dropped);
  EXPECT_EQ(serial_stats.blocks_skipped, par_stats.blocks_skipped);
  EXPECT_EQ(serial_stats.events_died, par_stats.events_died);
  EXPECT_GT(par_stats.faults_dropped, 0u);
}

TEST(SimState, WordShardedFullPassMatchesSerialBitIdentically) {
  // Sharded construction splits the word range across pool slots; gate
  // evaluation is word-local so the merged rows must equal serial exactly,
  // and simd_blocks is counted per node eval, so counters match too.
  const Network net = decompose2(strash(make_benchmark("my_adder").spec));
  // 1500 patterns = 24 words: enough for several 8-word shards, with a
  // partial tail word to exercise the post-pass mask sweep.
  const PatternSet patterns = random_patterns(net.pi_count(), 1500, 0x5A4D);
  SimState serial(net, patterns);
  for (const int jobs : {1, 2, 3, 7}) {
    ThreadPool pool(jobs);
    SimState sharded(net, patterns, &pool);
    for (const NodeId n : net.topo_order())
      ASSERT_EQ(serial.value(n), sharded.value(n))
          << "jobs=" << jobs << " node " << n;
    EXPECT_EQ(serial.stats().simd_blocks, sharded.stats().simd_blocks)
        << "jobs=" << jobs;
  }
}

TEST(Simulate, PoolShardingIsBitIdentical) {
  for (const auto& name : {"my_adder", "mult8"}) {
    const Network net = decompose2(strash(make_benchmark(name).spec));
    const PatternSet patterns = random_patterns(net.pi_count(), 2048, 0xF00);
    const auto serial = simulate(net, patterns);
    ThreadPool pool(3);
    const auto sharded = simulate(net, patterns, &pool);
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t n = 0; n < serial.size(); ++n)
      ASSERT_EQ(serial[n], sharded[n]) << name << " node " << n;
  }
}

TEST(SimState, StatsCarrySimdCountersAndDispatch) {
  const Network net = decompose2(strash(make_benchmark("z4ml").spec));
  const PatternSet patterns = random_patterns(net.pi_count(), 200, 0xCAFE);
  SimState sim(net, patterns);
  EXPECT_GT(sim.stats().simd_blocks, 0u);
  EXPECT_EQ(sim.stats().patterns_simulated, 200u);
  // A timed full pass ran, so the derived rate is well-defined.
  EXPECT_GT(sim.stats().patterns_per_second(), 0.0);
  SimStats zero;
  EXPECT_EQ(zero.patterns_per_second(), 0.0);
  EXPECT_TRUE(zero.empty());

  // Accumulating sums the counters; an empty contributor adds nothing.
  SimStats acc;
  acc.accumulate(sim.stats());
  acc.accumulate(zero);
  acc.accumulate(sim.stats());
  EXPECT_EQ(acc.full_passes, 2 * sim.stats().full_passes);
  EXPECT_EQ(acc.patterns_simulated, 400u);
  EXPECT_EQ(acc.simd_blocks, 2 * sim.stats().simd_blocks);
  EXPECT_DOUBLE_EQ(acc.full_pass_seconds, 2 * sim.stats().full_pass_seconds);
  EXPECT_FALSE(acc.empty());
}

TEST(PatternSet, WordAlignedBlocksReassembleTheSet) {
  const PatternSet ps = random_patterns(5, 200, 777);
  const PatternSet b0 = pattern_block(ps, 0, 128);
  const PatternSet b1 = pattern_block(ps, 128, 72);
  ASSERT_EQ(b0.num_patterns + b1.num_patterns, ps.num_patterns);
  for (std::size_t i = 0; i < ps.bits.size(); ++i) {
    for (std::size_t p = 0; p < 128; ++p)
      EXPECT_EQ(b0.bits[i].get(p), ps.bits[i].get(p));
    for (std::size_t p = 0; p < 72; ++p)
      EXPECT_EQ(b1.bits[i].get(p), ps.bits[i].get(128 + p));
  }
}

TEST(BitVec, FlipAllMasksTail) {
  BitVec v(70);
  v.set(3);
  v.set(69);
  v.flip_all();
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.count(), 68u);
  EXPECT_FALSE(v.get(3));
  EXPECT_TRUE(v.get(0));
  v.flip_all();
  EXPECT_EQ(v.count(), 2u);
  EXPECT_TRUE(v.get(3));
  EXPECT_TRUE(v.get(69));
}

TEST(Resub, SignaturePrefilterIsBitIdentical) {
  for (const auto& name : benchmark_names()) {
    // decompose2 bounds gate arity so write_blif can serialize the result.
    const Network net = decompose2(make_benchmark(name).spec);
    ResubOptions with;
    SimStats stats;
    with.sim_stats = &stats;
    ResubOptions without;
    without.sim_prefilter = false;
    const Network a = resub_merge(net, with);
    const Network b = resub_merge(net, without);
    EXPECT_EQ(write_blif_string(a, name), write_blif_string(b, name)) << name;
  }
}

TEST(Synth, ReportCarriesSimCounters) {
  SynthReport rep;
  synthesize(make_benchmark("z4ml").spec, {}, &rep);
  // Redundancy's step-1/step-4 states always run at least one full pass.
  EXPECT_GT(rep.sim.full_passes, 0u);
}

} // namespace
} // namespace rmsyn
