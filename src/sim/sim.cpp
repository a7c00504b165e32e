#include "sim/sim.hpp"

#include <cassert>

#include "network/eval_kernel.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace rmsyn {

namespace {

inline bool is_source(GateType t) {
  return t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1;
}

inline std::size_t blocks_per_eval(std::size_t words) {
  return (words + simd::kBlockWords - 1) / simd::kBlockWords;
}

} // namespace

// --- SimState ----------------------------------------------------------------

SimState::SimState(const Network& net, PatternSet patterns, ThreadPool* pool)
    : net_(net), patterns_(std::move(patterns)) {
  assert(patterns_.bits.size() == net_.pi_count());
  const std::size_t np = patterns_.num_patterns;
  zeros_ = BitVec(np);
  ones_ = BitVec(np);
  ones_.set_all();

  const std::size_t count = net_.node_count();
  values_.assign(count, zeros_);
  active_.assign(count, 0);
  is_po_.assign(count, 0);
  queued_.assign(count, 0);

  values_[Network::kConst1] = ones_;
  active_[Network::kConst0] = active_[Network::kConst1] = 1;
  for (std::size_t i = 0; i < net_.pi_count(); ++i) {
    const NodeId pi = net_.pis()[i];
    values_[pi] = patterns_.bits[i];
    active_[pi] = 1;
  }
  for (std::size_t i = 0; i < net_.po_count(); ++i) is_po_[net_.po(i)] = 1;

  // Full pass through the shared kernel (network/simulate.hpp); fanout
  // lists and levels are the network's own, the state only keeps values.
  RMSYN_SPAN("sim-full-pass");
  // topo_order() re-runs a full DFS per call — hoist the one copy the pass
  // and the activation sweep iterate.
  const std::vector<NodeId> order = net_.topo_order();
  Stopwatch watch;
  simulate_words(net_, order, values_, pool);

  // Complemented gates leave garbage in the unused tail bits of the last
  // word; restore the invariant and activate in one sweep. simd_blocks is
  // counted per node evaluation (not per shard) so the stat is identical
  // under any --jobs value.
  const std::size_t bpe = blocks_per_eval((np + 63) / 64);
  for (const NodeId n : order) {
    if (is_source(net_.type(n))) continue;
    values_[n].mask_tail();
    values_[n].assert_tail_clear();
    active_[n] = 1;
    stats_.simd_blocks += bpe;
  }
  ++stats_.full_passes;
  stats_.patterns_simulated += np;
  stats_.full_pass_seconds += watch.seconds();
}

std::vector<BitVec> SimState::po_values() const {
  std::vector<BitVec> out;
  out.reserve(net_.po_count());
  for (std::size_t i = 0; i < net_.po_count(); ++i)
    out.push_back(values_[net_.po(i)]);
  return out;
}

bool SimState::po_values_match(const std::vector<BitVec>& expect) const {
  assert(expect.size() == net_.po_count());
  for (std::size_t i = 0; i < net_.po_count(); ++i)
    if (values_[net_.po(i)].differs(expect[i])) return false;
  return true;
}

void SimState::resimulate(NodeId dirty) {
  RMSYN_SPAN("sim-resim");
  ++stats_.incr_resims;
  grow();
  sync_node(dirty);
  push_event(dirty);
  propagate();
}

void SimState::resimulate(const std::vector<NodeId>& dirty) {
  RMSYN_SPAN("sim-resim");
  ++stats_.incr_resims;
  grow();
  // All dirty cones are activated before any value moves, so
  // interdependent rewrites settle in one wave.
  for (const NodeId n : dirty) sync_node(n);
  for (const NodeId n : dirty) push_event(n);
  propagate();
}

SimStats SimState::take_stats() {
  SimStats out = stats_;
  stats_ = SimStats{};
  return out;
}

void SimState::grow() {
  const std::size_t count = net_.node_count();
  if (values_.size() >= count) return;
  values_.resize(count, zeros_);
  active_.resize(count, 0);
  is_po_.resize(count, 0);
  queued_.resize(count, 0);
}

void SimState::sync_node(NodeId n) {
  // The network maintains fanin/fanout/level structure itself, so the only
  // per-edit work left is activating nodes the state has never evaluated:
  // a rewrite may hand an active gate brand-new fanins (fresh inverters),
  // whose cones must carry real values before the dirty event fires.
  if (!active_[n]) {
    ensure_active(n);
    return;
  }
  if (is_source(net_.type(n))) return;
  for (const NodeId f : net_.fanins(n)) ensure_active(f);
}

void SimState::ensure_active(NodeId n) {
  if (active_[n]) return;
  // Activate the whole inactive cone below n, fanins first.
  std::vector<NodeId> stack{n};
  while (!stack.empty()) {
    const NodeId m = stack.back();
    if (active_[m]) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const NodeId f : net_.fanins(m)) {
      if (!active_[f]) {
        stack.push_back(f);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    active_[m] = 1;
    if (is_source(net_.type(m))) continue; // PI added post-construction: stays 0
    eval_node(m, scratch_);
    std::swap(values_[m], scratch_);
    ++stats_.events;
  }
}

void SimState::push_event(NodeId n) {
  if (!active_[n] || queued_[n] || is_source(net_.type(n))) return;
  queued_[n] = 1;
  const uint32_t lv = net_.level(n);
  if (buckets_.size() <= lv) buckets_.resize(lv + 1);
  buckets_[lv].push_back(n);
  ++pending_;
}

void SimState::propagate() {
  for (std::size_t lv = 0; lv < buckets_.size() && pending_ > 0; ++lv) {
    // push_event may resize buckets_, so index (never reference) the row;
    // new events always land at strictly higher levels.
    for (std::size_t i = 0; i < buckets_[lv].size(); ++i) {
      const NodeId n = buckets_[lv][i];
      queued_[n] = 0;
      --pending_;
      ++stats_.events;
      eval_node(n, scratch_);
      // Any-differing-word test (vectorized, early exit): unchanged
      // values kill the event.
      if (!scratch_.differs(values_[n])) {
        ++stats_.events_died;
        continue;
      }
      std::swap(values_[n], scratch_);
      // Maintained fanout lists; push_event filters inactive readers
      // (nodes outside the PO cone that were never evaluated).
      for (const NodeId fo : net_.fanouts(n)) push_event(fo);
    }
    buckets_[lv].clear();
  }
}

void SimState::eval_node(NodeId n, BitVec& out) const {
  const std::size_t np = patterns_.num_patterns;
  if (out.size() != np) out = BitVec(np);
  const FaninSpan fi = net_.fanins(n);
  const uint64_t* ins_inline[kEvalInlineFanins];
  std::vector<const uint64_t*> ins_heap;
  const uint64_t** ins = ins_inline;
  if (fi.size() > kEvalInlineFanins) {
    ins_heap.resize(fi.size());
    ins = ins_heap.data();
  }
  for (std::size_t k = 0; k < fi.size(); ++k) ins[k] = values_[fi[k]].data();
  eval_gate_words(net_.type(n), ins, fi.size(), out.data(), out.words());
  out.mask_tail();
  stats_.simd_blocks += blocks_per_eval(out.words());
}

// --- FaultProber -------------------------------------------------------------

FaultProber::FaultProber(const SimState& proto) { grow(proto); }

void FaultProber::grow(const SimState& s) {
  const std::size_t count = s.values_.size();
  if (faulty_.size() < count) {
    faulty_.resize(count);
    stamp_.resize(count, 0);
    queued_.resize(count, 0);
  }
}

void FaultProber::push(const SimState& s, NodeId n) {
  // Inactive readers (outside the state's evaluated cone) cannot reach a
  // PO through evaluated logic; skipping them mirrors the mirror-based
  // pre-SoA engine, which never linked them in.
  if (queued_[n] || !s.active_[n]) return;
  queued_[n] = 1;
  const uint32_t lv = s.net().level(n);
  if (buckets_.size() <= lv) buckets_.resize(lv + 1);
  buckets_[lv].push_back(n);
  ++pending_;
}

bool FaultProber::detects(const SimState& s, NodeId node, int pin,
                          bool stuck_value) {
  ++stats_.fault_probes;
  grow(s);
  ++epoch_;
  const Network& net = s.net();
  const BitVec& forced = stuck_value ? s.ones_ : s.zeros_;
  const std::size_t np = s.num_patterns();
  const std::size_t nw = forced.words();
  const std::size_t bpe = blocks_per_eval((np + 63) / 64);

  // Evaluates node m with faulty overlay values (and, for the seed, the
  // forced pin) through the word kernels into scratch_.
  const uint64_t* ins_inline[kEvalInlineFanins];
  std::vector<const uint64_t*> ins_heap;
  const auto eval_overlay = [&](NodeId m, int forced_pin) {
    if (scratch_.size() != np) scratch_ = BitVec(np);
    const FaninSpan fi = net.fanins(m);
    const uint64_t** ins = ins_inline;
    if (fi.size() > kEvalInlineFanins) {
      ins_heap.resize(fi.size());
      ins = ins_heap.data();
    }
    for (std::size_t k = 0; k < fi.size(); ++k) {
      if (static_cast<int>(k) == forced_pin) {
        ins[k] = forced.data();
      } else {
        const NodeId f = fi[k];
        ins[k] = (stamp_[f] == epoch_ ? faulty_[f] : s.values_[f]).data();
      }
    }
    eval_gate_words(net.type(m), ins, fi.size(), scratch_.data(), nw);
    scratch_.mask_tail();
    stats_.simd_blocks += bpe;
  };

  // Seed: the faulty value at the fault site itself.
  if (pin < 0) {
    scratch_ = forced;
  } else {
    eval_overlay(node, pin);
  }
  ++stats_.cone_nodes;
  // Vectorized overlay compare: early-exit any-differing-word.
  if (!scratch_.differs(s.values_[node])) {
    ++stats_.events_died;
    return false;
  }
  std::swap(faulty_[node], scratch_);
  stamp_[node] = epoch_;
  bool detected = s.is_po_[node] != 0;
  if (!detected)
    for (const NodeId fo : net.fanouts(node)) push(s, fo);

  for (std::size_t lv = 0; lv < buckets_.size() && pending_ > 0; ++lv) {
    for (std::size_t i = 0; i < buckets_[lv].size(); ++i) {
      const NodeId m = buckets_[lv][i];
      queued_[m] = 0;
      --pending_;
      if (detected) continue; // drain remaining queue flags only
      eval_overlay(m, -1);
      ++stats_.cone_nodes;
      if (!scratch_.differs(s.values_[m])) {
        ++stats_.events_died;
        continue;
      }
      std::swap(faulty_[m], scratch_);
      stamp_[m] = epoch_;
      if (s.is_po_[m]) {
        detected = true;
        continue;
      }
      for (const NodeId fo : net.fanouts(m)) push(s, fo);
    }
    buckets_[lv].clear();
  }
  return detected;
}

} // namespace rmsyn
