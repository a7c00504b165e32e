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
  queue_.resize(count);

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
  queue_.resize(count);
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
  if (!active_[n] || is_source(net_.type(n))) return;
  queue_.push(n, net_.level(n));
}

void SimState::propagate() {
  queue_.drain([&](NodeId n) {
    ++stats_.events;
    eval_node(n, scratch_);
    // Any-differing-word test (vectorized, early exit): unchanged values
    // kill the event.
    if (!scratch_.differs(values_[n])) {
      ++stats_.events_died;
      return;
    }
    std::swap(values_[n], scratch_);
    // Maintained fanout lists; push_event filters inactive readers (nodes
    // outside the PO cone that were never evaluated).
    for (const NodeId fo : net_.fanouts(n)) push_event(fo);
  });
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
    queue_.resize(count);
  }
}

void FaultProber::push(const SimState& s, NodeId n) {
  // Inactive readers (outside the state's evaluated cone) cannot reach a
  // PO through evaluated logic.
  if (s.active_[n]) queue_.push(n, s.net().level(n));
}

std::size_t FaultProber::observe(const SimState& s, NodeId stem,
                                 const uint64_t* masks, std::size_t count,
                                 uint8_t* hit) {
  grow(s);
  ++epoch_;
  const Network& net = s.net();
  const std::size_t np = s.num_patterns();
  const std::size_t nw = (np + 63) / 64;
  const std::size_t bpe = blocks_per_eval(nw);
  std::size_t left = count;

  // Hits every mask that meets `fresh` (patterns newly observed). A mask
  // not hit yet misses everything observed before, so checking only the
  // fresh patterns decides it.
  const auto mark = [&](const uint64_t* fresh) {
    for (std::size_t i = 0; i < count && left > 0; ++i) {
      if (hit[i]) continue;
      const uint64_t* m = masks + i * nw;
      for (std::size_t w = 0; w < nw; ++w) {
        if ((m[w] & fresh[w]) == 0) continue;
        hit[i] = 1;
        --left;
        break;
      }
    }
  };

  ++stats_.cone_nodes;
  if (s.is_po_[stem]) {
    mark(s.ones_.data());
    return count - left;
  }
  if (observed_.size() != np) observed_ = BitVec(np);
  observed_.clear_all();
  scratch_ = s.values_[stem];
  scratch_.flip_all();
  std::swap(faulty_[stem], scratch_);
  stamp_[stem] = epoch_;
  for (const NodeId fo : net.fanouts(stem)) push(s, fo);

  // Evaluates node m with faulty overlay values through the word kernels
  // into scratch_.
  const uint64_t* ins_inline[kEvalInlineFanins];
  std::vector<const uint64_t*> ins_heap;
  const auto eval_overlay = [&](NodeId m) {
    if (scratch_.size() != np) scratch_ = BitVec(np);
    const FaninSpan fi = net.fanins(m);
    const uint64_t** ins = ins_inline;
    if (fi.size() > kEvalInlineFanins) {
      ins_heap.resize(fi.size());
      ins = ins_heap.data();
    }
    for (std::size_t k = 0; k < fi.size(); ++k) {
      const NodeId f = fi[k];
      ins[k] = (stamp_[f] == epoch_ ? faulty_[f] : s.values_[f]).data();
    }
    eval_gate_words(net.type(m), ins, fi.size(), scratch_.data(), nw);
    scratch_.mask_tail();
    stats_.simd_blocks += bpe;
  };

  queue_.drain([&](NodeId m) {
    if (left == 0) return; // drain the remaining queue flags only
    eval_overlay(m);
    ++stats_.cone_nodes;
    // Vectorized overlay compare: early-exit any-differing-word.
    if (!scratch_.differs(s.values_[m])) {
      ++stats_.events_died;
      return;
    }
    std::swap(faulty_[m], scratch_);
    stamp_[m] = epoch_;
    if (s.is_po_[m]) {
      // scratch_ is free again: it receives the freshly observed patterns.
      if (scratch_.size() != np) scratch_ = BitVec(np);
      const uint64_t* f = faulty_[m].data();
      const uint64_t* g = s.values_[m].data();
      uint64_t* seen = observed_.data();
      uint64_t* fresh = scratch_.data();
      uint64_t any = 0;
      for (std::size_t w = 0; w < nw; ++w) {
        fresh[w] = (f[w] ^ g[w]) & ~seen[w];
        seen[w] |= fresh[w];
        any |= fresh[w];
      }
      if (any != 0) mark(fresh);
      if (left == 0) return;
    }
    for (const NodeId fo : net.fanouts(m)) push(s, fo);
  });
  return count - left;
}

} // namespace rmsyn
