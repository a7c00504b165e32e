#include "network/simulate.hpp"

#include <algorithm>
#include <cassert>

#include "network/eval_kernel.hpp"
#include "sched/pool.hpp"
#include "util/rng.hpp"

namespace rmsyn {

void PatternSet::append(const BitVec& assignment) {
  assert(assignment.size() == bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i].resize(num_patterns + 1);
    bits[i].set(num_patterns, assignment.get(i));
  }
  ++num_patterns;
}

namespace {

/// Evaluates every gate's value words in range [w0, w1) in topological
/// order. Word-local, so disjoint ranges can run concurrently over the
/// same row storage.
void simulate_range(const Network& net, const std::vector<NodeId>& order,
                    std::vector<BitVec>& value, std::size_t w0,
                    std::size_t w1) {
  const std::size_t nw = w1 - w0;
  if (nw == 0) return;
  const uint64_t* ins_inline[kEvalInlineFanins];
  std::vector<const uint64_t*> ins_heap;
  for (const NodeId n : order) {
    const GateType t = net.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    const auto& fi = net.fanins(n);
    const uint64_t** ins = ins_inline;
    if (fi.size() > kEvalInlineFanins) {
      ins_heap.resize(fi.size());
      ins = ins_heap.data();
    }
    for (std::size_t k = 0; k < fi.size(); ++k)
      ins[k] = value[fi[k]].data() + w0;
    eval_gate_words(t, ins, fi.size(), value[n].data() + w0, nw);
  }
}

} // namespace

void simulate_words(const Network& net, const std::vector<NodeId>& order,
                    std::vector<BitVec>& value, ThreadPool* pool) {
  const std::size_t nw = value[Network::kConst0].words();
  // Sharding only pays once each shard has a few SIMD blocks of work.
  constexpr std::size_t kMinWordsPerShard = 8;
  std::size_t nshards = 1;
  if (pool != nullptr && pool->worker_count() > 0)
    nshards = std::min<std::size_t>(static_cast<std::size_t>(pool->slot_count()),
                                    nw / kMinWordsPerShard);

  if (nshards <= 1) {
    simulate_range(net, order, value, 0, nw);
    return;
  }
  std::vector<Future<bool>> futs;
  futs.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    const std::size_t w0 = s * nw / nshards;
    const std::size_t w1 = (s + 1) * nw / nshards;
    futs.push_back(pool->submit([&net, &order, &value, w0, w1] {
      simulate_range(net, order, value, w0, w1);
      return true;
    }));
  }
  for (auto& fut : futs) pool->wait(fut);
}

std::vector<BitVec> simulate(const Network& net, const PatternSet& patterns,
                             ThreadPool* pool) {
  assert(patterns.bits.size() == net.pi_count());
  const std::size_t np = patterns.num_patterns;
  std::vector<BitVec> value(net.node_count(), BitVec(np));
  value[Network::kConst1].set_all();
  for (std::size_t i = 0; i < net.pi_count(); ++i)
    value[net.pis()[i]] = patterns.bits[i];

  // topo_order() re-runs a full DFS per call — hoist the one copy every
  // shard (and the tail sweep) iterates.
  const std::vector<NodeId> order = net.topo_order();
  simulate_words(net, order, value, pool);

  // Complemented gates set the unused tail bits of the final word;
  // restore the BitVec tail invariant on every computed row.
  for (const NodeId n : order) value[n].mask_tail();
  for (auto& row : value) row.assert_tail_clear();
  return value;
}

PatternSet random_patterns(std::size_t num_pis, std::size_t count, uint64_t seed) {
  Rng rng(seed);
  PatternSet ps(num_pis, count);
  for (auto& b : ps.bits) {
    for (std::size_t w = 0; w < b.words(); ++w) b.word(w) = rng.next();
    b.mask_tail();
    b.assert_tail_clear();
  }
  return ps;
}

PatternSet pattern_block(const PatternSet& ps, std::size_t first_pattern,
                         std::size_t count) {
  assert(first_pattern % 64 == 0);
  assert(first_pattern + count <= ps.num_patterns);
  const std::size_t first_word = first_pattern / 64;
  PatternSet out(ps.bits.size(), count);
  for (std::size_t i = 0; i < ps.bits.size(); ++i) {
    BitVec& row = out.bits[i];
    for (std::size_t w = 0; w < row.words(); ++w)
      row.word(w) = ps.bits[i].word(first_word + w);
    row.mask_tail();
    row.assert_tail_clear();
  }
  return out;
}

} // namespace rmsyn
