// Event-driven incremental simulation engine.
//
// Every simulation consumer in rmsyn used to pay for a full levelized pass
// over the network per query: fault simulation re-simulated the whole
// network once per fault, redundancy removal once per candidate rewrite,
// and power/equiv ran private passes of their own. The classic result
// (Ulrich & Baker's concurrent fault simulation, Waicukauski's PPSFP) is
// that almost all of that work is redundant: a change at one node only
// affects its transitive fanout cone, and word-parallel values make
// "did anything change?" a cheap 64-wide compare.
//
// Two classes implement that here, both on the existing BitVec values:
//
//  * SimState — caches the good value of every node for one pattern set,
//    levelized so events process fanins-before-fanouts even after
//    rewrite_gate added higher-id nodes feeding lower-id gates. After a
//    structural edit, resimulate(dirty) re-evaluates only the fanout cone
//    of the dirty nodes; an evaluation whose value is unchanged kills its
//    event, so propagation dies out early (redundancy removal's try/revert
//    loop typically touches a handful of nodes per candidate).
//
//  * FaultProber — the stem prober behind fault simulation's fanout-free
//    region (FFR) tracing. observe() flips one stem on every pattern of a
//    const SimState and propagates the difference through its fanout cone;
//    the patterns on which some PO changes are the stem's observability.
//    A stuck-at fault inside the stem's FFR is detected exactly on the
//    patterns where its local mask (computed by the caller from good
//    values, testability/faults.cpp) meets that observability, so one
//    propagation per region decides all of the region's faults. Faulty
//    values live in an epoch-stamped overlay and the good state is never
//    touched, so one prober serves any number of SimStates over the SAME
//    network (fault simulation keeps one state per pattern block) and
//    per-worker probers make parallel root chunks bit-identical to serial.
//
// Determinism: values depend only on (network, patterns); event/statistic
// counts depend only on the dirty sets, the stems probed with their masks,
// and the network's (deterministic) fanout-list order — never on thread
// schedule. cone_nodes in particular counts evaluations up to the early
// exit once every mask is hit, so it shifts when fanout traversal order
// changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "network/network.hpp"
#include "network/simulate.hpp"
#include "util/bitvec.hpp"
#include "util/stat_fields.hpp"

namespace rmsyn {

class ThreadPool;

/// Counters for the incremental engine; absorbed into the metrics registry
/// as the sim.* group (obs/metrics.hpp) and surfaced on SynthReport /
/// FlowRow next to BddStats.
struct SimStats {
  uint64_t full_passes = 0;    ///< levelized full evaluations (state builds)
  uint64_t incr_resims = 0;    ///< resimulate() calls after edits
  uint64_t events = 0;         ///< node evaluations triggered by events
  uint64_t events_died = 0;    ///< evaluations whose value did not change
  uint64_t fault_probes = 0;   ///< faults decided, counted once per block
  uint64_t cone_nodes = 0;     ///< stem-cone nodes evaluated by observe()
  uint64_t faults_dropped = 0; ///< faults detected before the last block
  uint64_t blocks_skipped = 0; ///< pattern blocks skipped via dropping
  uint64_t value_reuses = 0;   ///< cached good values served to clients
  /// 256-bit pattern blocks routed through the word kernels, counted per
  /// node evaluation as ceil(words / simd::kBlockWords) — independent of
  /// sharding, so `--jobs N` reports the same number as serial.
  uint64_t simd_blocks = 0;
  uint64_t patterns_simulated = 0; ///< patterns x full passes (throughput)
  double full_pass_seconds = 0.0;  ///< wall time inside full passes

  /// Full-pass throughput (pattern-evaluations per second); 0 when no
  /// timed full pass ran.
  double patterns_per_second() const {
    return full_pass_seconds > 0.0
               ? static_cast<double>(patterns_simulated) / full_pass_seconds
               : 0.0;
  }

  void accumulate(const SimStats& o) { stat_fields::accumulate(*this, o); }
  bool empty() const { return stat_fields::empty(*this); }

  /// Field table (util/stat_fields.hpp); exported as the sim.* metrics.
  template <class V>
  static void fields(V&& v) {
    v("full_passes", &SimStats::full_passes, StatKind::Counter);
    v("incr_resims", &SimStats::incr_resims, StatKind::Counter);
    v("events", &SimStats::events, StatKind::Counter);
    v("events_died", &SimStats::events_died, StatKind::Counter);
    v("fault_probes", &SimStats::fault_probes, StatKind::Counter);
    v("cone_nodes", &SimStats::cone_nodes, StatKind::Counter);
    v("faults_dropped", &SimStats::faults_dropped, StatKind::Counter);
    v("blocks_skipped", &SimStats::blocks_skipped, StatKind::Counter);
    v("value_reuses", &SimStats::value_reuses, StatKind::Counter);
    v("simd_blocks", &SimStats::simd_blocks, StatKind::Counter);
    v("patterns_simulated", &SimStats::patterns_simulated, StatKind::Internal);
    v("full_pass_seconds", &SimStats::full_pass_seconds, StatKind::Internal);
    v("patterns_per_second", &SimStats::patterns_per_second, StatKind::Rate);
  }
};

/// Level-bucketed event queue shared by SimState and FaultProber: events
/// always fire at strictly higher levels than the node that spawned them,
/// so one ascending sweep from the lowest queued level settles a wave.
class LevelQueue {
public:
  void resize(std::size_t count) { queued_.resize(count, 0); }

  /// Queues n at level lv unless it is already queued.
  void push(NodeId n, uint32_t lv) {
    if (queued_[n]) return;
    queued_[n] = 1;
    if (buckets_.size() <= lv) buckets_.resize(lv + 1);
    buckets_[lv].push_back(n);
    if (lv < lowest_) lowest_ = lv;
    ++pending_;
  }

  /// Fires every queued node in ascending level order, including the
  /// events `fire` itself pushes; the queue is empty afterwards.
  template <class Fire>
  void drain(Fire&& fire) {
    for (std::size_t lv = lowest_; lv < buckets_.size() && pending_ > 0;
         ++lv) {
      // push may resize buckets_, so index (never reference) the row; new
      // events always land at strictly higher levels.
      for (std::size_t i = 0; i < buckets_[lv].size(); ++i) {
        const NodeId n = buckets_[lv][i];
        queued_[n] = 0;
        --pending_;
        fire(n);
      }
      buckets_[lv].clear();
    }
    lowest_ = kNone;
  }

private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::vector<NodeId>> buckets_;
  std::vector<uint8_t> queued_;
  std::size_t pending_ = 0;
  std::size_t lowest_ = kNone;
};

/// Cached good-simulation of one network under one pattern set.
///
/// The referenced network must outlive the state. Structural edits
/// (rewrite_gate / newly added nodes) are legal as long as every rewritten
/// node is passed to resimulate() before values are read again; new nodes
/// reachable from a dirty node are discovered and folded in automatically.
/// Retargeting POs after construction is not supported.
///
/// Since the SoA refactor the network maintains its own fanout lists and
/// structural levels, so the state no longer mirrors fanin/fanout/level
/// structure — it reads the network's maintained data directly and keeps
/// only the per-node value cache plus the active (evaluated-at-least-once)
/// set. This halves the per-node bookkeeping and removes every per-node
/// vector allocation from the engine.
class SimState {
public:
  /// With a pool, the construction-time full pass shards the pattern
  /// words across workers (disjoint word ranges of the same value rows,
  /// bit-identical to serial by construction). The pool is only used for
  /// that pass; incremental resim cones are too small to shard.
  SimState(const Network& net, PatternSet patterns,
           ThreadPool* pool = nullptr);

  const Network& net() const { return net_; }
  std::size_t num_patterns() const { return patterns_.num_patterns; }

  /// Cached value of node n (64 patterns per word). PIs/constants are
  /// their pattern rows; nodes outside the PO-cone-plus-PI set simulate()
  /// covers stay all-zero, matching simulate()'s result vector.
  const BitVec& value(NodeId n) const {
    ++stats_.value_reuses;
    return values_[n];
  }

  std::vector<BitVec> po_values() const;
  /// True when every PO value equals `expect` (one BitVec per PO).
  bool po_values_match(const std::vector<BitVec>& expect) const;

  /// Declares `dirty` structurally edited and re-simulates its cone.
  void resimulate(NodeId dirty);
  /// Multi-node edit: all structure is synced before any value moves, so
  /// interdependent rewrites settle in one wave.
  void resimulate(const std::vector<NodeId>& dirty);

  const SimStats& stats() const { return stats_; }
  /// Moves the counters out (e.g. into a report) and zeroes them.
  SimStats take_stats();

private:
  friend class FaultProber;

  void grow();
  void sync_node(NodeId n);
  void ensure_active(NodeId n);
  void push_event(NodeId n);
  void propagate();
  void eval_node(NodeId n, BitVec& out) const;

  const Network& net_;
  PatternSet patterns_;
  BitVec ones_, zeros_;

  std::vector<BitVec> values_;
  std::vector<uint8_t> active_; ///< evaluated at least once (≈ topo set)
  std::vector<uint8_t> is_po_;

  LevelQueue queue_;

  BitVec scratch_; ///< reused evaluation buffer (alloc-free steady state)
  mutable SimStats stats_;
};

/// Stem prober for fault simulation's fanout-free-region tracing, over a
/// const SimState (or several states sharing one network — fault
/// simulation keeps one state per pattern block). Faulty values live in an
/// epoch-stamped overlay, so consecutive probes reuse the buffers without
/// clearing; the good state is never touched. Not thread-safe: use one
/// prober per worker.
class FaultProber {
public:
  /// Sizes the overlay for `proto`'s network; any SimState over the same
  /// network may be probed.
  explicit FaultProber(const SimState& proto);

  /// Good value of n under s. Unlike SimState::value() this leaves s's
  /// counters alone, so probers on several threads may share one state.
  const BitVec& good(const SimState& s, NodeId n) const {
    return s.values_[n];
  }

  /// Flips `stem` on every pattern of s and propagates the difference
  /// through its fanout cone; a pattern on which some PO changes makes the
  /// stem observable. `masks` holds `count` pattern masks of s's word width
  /// back to back; hit[i] is set when mask i meets an observable pattern.
  /// A stem that drives a PO is observable everywhere. Propagation stops
  /// once every mask is hit, so callers pass nonzero masks only. Returns
  /// the number of masks hit.
  std::size_t observe(const SimState& s, NodeId stem, const uint64_t* masks,
                      std::size_t count, uint8_t* hit);

  const SimStats& stats() const { return stats_; }

private:
  void grow(const SimState& s);
  void push(const SimState& s, NodeId n);

  std::vector<BitVec> faulty_;   ///< overlay value, valid iff stamp == epoch
  std::vector<uint64_t> stamp_;
  uint64_t epoch_ = 0;
  LevelQueue queue_;

  BitVec observed_; ///< patterns on which some PO has changed so far
  BitVec scratch_;
  SimStats stats_;
};

} // namespace rmsyn
