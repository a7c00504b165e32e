#include "rewrite/cuts.hpp"

#include <algorithm>
#include <unordered_map>

#include "network/eval_kernel.hpp"
#include "rewrite/npn.hpp"
#include "util/governor.hpp"
#include "util/simd.hpp"

namespace rmsyn {
namespace rw {

namespace {

/// Merges two sorted leaf sets; false when the union exceeds 4.
bool merge_leaves(const Cut& a, const Cut& b, Cut* out) {
  int i = 0, j = 0, k = 0;
  while (i < a.nleaves || j < b.nleaves) {
    NodeId next;
    if (j >= b.nleaves || (i < a.nleaves && a.leaves[i] <= b.leaves[j])) {
      next = a.leaves[i++];
      if (j < b.nleaves && b.leaves[j] == next) ++j;
    } else {
      next = b.leaves[j++];
    }
    if (k == 4) return false;
    out->leaves[k++] = next;
  }
  out->nleaves = static_cast<uint8_t>(k);
  for (int t = k; t < 4; ++t) out->leaves[t] = Network::kNoNode;
  return true;
}

bool leaves_less(const Cut& a, const Cut& b) {
  if (a.nleaves != b.nleaves) return a.nleaves < b.nleaves;
  return a.leaves < b.leaves;
}

/// Evaluates the cone between `root` and the cut leaves on 16-bit words
/// (leaf i = kProj4[i]). Returns false when the cone escapes the leaves or
/// exceeds `max_cone` visited nodes.
bool eval_cone(const Network& net, NodeId root, const Cut& cut, uint16_t* out,
               int max_cone) {
  std::unordered_map<NodeId, uint16_t> val;
  val.reserve(16);
  for (int i = 0; i < cut.nleaves; ++i) {
    if (net.is_dead(cut.leaves[i])) return false;
    val.emplace(cut.leaves[i], kProj4[i]);
  }
  int visited = 0;
  // Explicit post-order DFS so deep cones cannot overflow the call stack.
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    if (val.count(n)) {
      stack.pop_back();
      continue;
    }
    if (net.is_dead(n)) return false;
    const GateType t = net.type(n);
    if (t == GateType::Const0 || t == GateType::Const1) {
      val.emplace(n, t == GateType::Const0 ? 0x0000 : 0xFFFF);
      stack.pop_back();
      continue;
    }
    if (t == GateType::Pi) return false; // escaped past the leaves
    bool ready = true;
    for (const NodeId f : net.fanins(n)) {
      if (!val.count(f)) {
        stack.push_back(f);
        ready = false;
      }
    }
    if (!ready) {
      if (++visited > max_cone) return false;
      continue;
    }
    stack.pop_back();
    const FaninSpan fi = net.fanins(n);
    uint16_t v = 0;
    switch (t) {
      case GateType::Buf:
        v = val[fi[0]];
        break;
      case GateType::Not:
        v = static_cast<uint16_t>(~val[fi[0]]);
        break;
      case GateType::And:
      case GateType::Nand:
        v = 0xFFFF;
        for (const NodeId f : fi) v &= val[f];
        if (t == GateType::Nand) v = static_cast<uint16_t>(~v);
        break;
      case GateType::Or:
      case GateType::Nor:
        v = 0x0000;
        for (const NodeId f : fi) v |= val[f];
        if (t == GateType::Nor) v = static_cast<uint16_t>(~v);
        break;
      case GateType::Xor:
      case GateType::Xnor:
        v = 0x0000;
        for (const NodeId f : fi) v ^= val[f];
        if (t == GateType::Xnor) v = static_cast<uint16_t>(~v);
        break;
      default:
        return false;
    }
    val.emplace(n, v);
  }
  *out = val[root];
  return true;
}

/// Dedup by leaf set, drop dominated cuts, order by priority, truncate.
void filter_cuts(std::vector<Cut>* cuts, int limit) {
  std::sort(cuts->begin(), cuts->end(), leaves_less);
  cuts->erase(std::unique(cuts->begin(), cuts->end(),
                          [](const Cut& a, const Cut& b) { return a.same_leaves(b); }),
              cuts->end());
  std::vector<Cut> kept;
  for (const Cut& c : *cuts) {
    bool dominated = false;
    for (const Cut& k : kept) {
      // kept is sorted by size, so only subset checks against smaller cuts.
      if (k.subset_of(c)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      kept.push_back(c);
      if (static_cast<int>(kept.size()) >= limit) break;
    }
  }
  *cuts = std::move(kept);
}

} // namespace

bool Cut::subset_of(const Cut& o) const {
  if (nleaves > o.nleaves) return false;
  int j = 0;
  for (int i = 0; i < nleaves; ++i) {
    while (j < o.nleaves && o.leaves[j] < leaves[i]) ++j;
    if (j >= o.nleaves || o.leaves[j] != leaves[i]) return false;
    ++j;
  }
  return true;
}

bool cut_tt(const Network& net, NodeId root, const Cut& cut, uint16_t* tt,
            int max_cone) {
  if (net.is_dead(root)) return false;
  uint16_t full = 0;
  if (!eval_cone(net, root, cut, &full, max_cone)) return false;
  // eval_cone works over 4-variable words; reduce to the cut's arity.
  uint16_t v = full;
  if (cut.nleaves < 4)
    v &= static_cast<uint16_t>((1u << (1 << cut.nleaves)) - 1);
  *tt = v;
  return true;
}

void cut_tts_batch(const Network& net, NodeId root,
                   const std::vector<Cut>& cuts, std::vector<uint16_t>* tts,
                   std::vector<uint8_t>* ok, int max_cone) {
  const std::size_t ncuts = cuts.size();
  tts->assign(ncuts, 0);
  ok->assign(ncuts, 0);
  if (ncuts == 0) return;

  const auto scalar_fallback = [&] {
    for (std::size_t c = 0; c < ncuts; ++c)
      (*ok)[c] = cut_tt(net, root, cuts[c], &(*tts)[c], max_cone) ? 1 : 0;
  };

  // Lane layout: cut c occupies 16-bit lane c%4 of word c/4.
  const std::size_t nwords = (ncuts + 3) / 4;
  const auto lane_shift = [](std::size_t c) { return (c & 3) * 16; };

  // Per-leaf lane masks and projections. A node that is a leaf in SOME
  // lanes but interior in others contributes its projection to the leaf
  // lanes and its computed function to the rest (the mux below).
  struct LaneInfo {
    std::vector<uint64_t> mask, proj;
  };
  std::unordered_map<NodeId, LaneInfo> leaves;
  leaves.reserve(16);
  for (std::size_t c = 0; c < ncuts; ++c) {
    const Cut& cut = cuts[c];
    for (int i = 0; i < cut.nleaves; ++i) {
      const NodeId lf = cut.leaves[i];
      if (net.is_dead(lf)) {
        // A dead leaf fails only the cuts containing it; let the scalar
        // path sort the lanes out.
        scalar_fallback();
        return;
      }
      LaneInfo& li = leaves[lf];
      if (li.mask.empty()) {
        li.mask.assign(nwords, 0);
        li.proj.assign(nwords, 0);
      }
      li.mask[c / 4] |= uint64_t{0xFFFF} << lane_shift(c);
      li.proj[c / 4] |= uint64_t{kProj4[i]} << lane_shift(c);
    }
  }
  // Padding lanes of the last word count as "leaf everywhere" so they
  // never force an expansion on their own.
  uint64_t pad = 0;
  for (std::size_t c = ncuts; c < nwords * 4; ++c)
    pad |= uint64_t{0xFFFF} << lane_shift(c);
  const auto leaf_everywhere = [&](const LaneInfo& li) {
    for (std::size_t w = 0; w + 1 < nwords; ++w)
      if (li.mask[w] != ~uint64_t{0}) return false;
    return (li.mask[nwords - 1] | pad) == ~uint64_t{0};
  };

  // One post-order DFS over the union cone. Exactness argument: per-cut
  // interiors are subsets of the union interior, so bounding the union
  // interior by max_cone bounds every per-cut walk too; a PI interior in
  // any lane (not leaf-everywhere) would fail only some lanes, which the
  // scalar fallback decides instead. Under those guards every lane's
  // value is, by induction over the cone, exactly eval_cone's.
  std::unordered_map<NodeId, std::vector<uint64_t>> val;
  val.reserve(32);
  std::vector<uint64_t> tmp(nwords);
  const uint64_t* ins_small[kEvalInlineFanins];
  std::vector<const uint64_t*> ins_big;
  int expanded = 0;
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    if (val.count(n)) {
      stack.pop_back();
      continue;
    }
    if (net.is_dead(n)) {
      scalar_fallback();
      return;
    }
    const auto li = leaves.find(n);
    if (li != leaves.end() && leaf_everywhere(li->second)) {
      val.emplace(n, li->second.proj);
      stack.pop_back();
      continue;
    }
    const GateType t = net.type(n);
    if (t == GateType::Const0 || t == GateType::Const1) {
      val.emplace(n, std::vector<uint64_t>(
                         nwords, t == GateType::Const0 ? 0 : ~uint64_t{0}));
      stack.pop_back();
      continue;
    }
    if (t == GateType::Pi) {
      // Interior PI in at least one lane: that lane's scalar walk
      // escapes; decide all lanes scalar.
      scalar_fallback();
      return;
    }
    const FaninSpan fi = net.fanins(n);
    bool ready = true;
    for (const NodeId f : fi) {
      if (!val.count(f)) {
        stack.push_back(f);
        ready = false;
      }
    }
    if (!ready) continue;
    if (++expanded > max_cone) {
      scalar_fallback();
      return;
    }
    stack.pop_back();
    const uint64_t** ins = ins_small;
    if (fi.size() > kEvalInlineFanins) {
      ins_big.resize(fi.size());
      ins = ins_big.data();
    }
    for (std::size_t k = 0; k < fi.size(); ++k) ins[k] = val[fi[k]].data();
    eval_gate_words(t, ins, fi.size(), tmp.data(), nwords);
    if (li != leaves.end())
      simd::v_mux(tmp.data(), li->second.mask.data(),
                  li->second.proj.data(), tmp.data(), nwords);
    val.emplace(n, tmp);
  }

  const std::vector<uint64_t>& rv = val[root];
  for (std::size_t c = 0; c < ncuts; ++c) {
    uint16_t v = static_cast<uint16_t>((rv[c / 4] >> lane_shift(c)) & 0xFFFF);
    if (cuts[c].nleaves < 4)
      v &= static_cast<uint16_t>((1u << (1 << cuts[c].nleaves)) - 1);
    (*tts)[c] = v;
    (*ok)[c] = 1;
  }
}

std::vector<std::vector<Cut>> enumerate_cuts(const Network& net,
                                             const std::vector<NodeId>& order,
                                             const CutOptions& opt,
                                             uint64_t* cuts_enumerated,
                                             ResourceGovernor* gov) {
  std::vector<std::vector<Cut>> sets(net.node_count());
  const auto trivial = [](NodeId n) {
    Cut c;
    c.leaves[0] = n;
    c.nleaves = 1;
    c.tt = 0xAAAA & 0x3; // variable 0 over one leaf
    return c;
  };
  for (const NodeId n : order) {
    if (gov && !gov->poll()) break;
    const GateType t = net.type(n);
    std::vector<Cut>& out = sets[n];
    if (t == GateType::Const0 || t == GateType::Const1) {
      Cut c;
      c.tt = (t == GateType::Const1) ? 0xFFFF : 0x0000;
      out.push_back(c);
      continue;
    }
    if (t == GateType::Pi) {
      out.push_back(trivial(n));
      if (cuts_enumerated) ++*cuts_enumerated;
      continue;
    }
    // Fold fanin cut sets into merged leaf sets.
    std::vector<Cut> acc{Cut{}}; // single empty cut as the fold seed
    for (const NodeId f : net.fanins(n)) {
      std::vector<Cut> next;
      for (const Cut& a : acc) {
        for (const Cut& b : sets[f]) {
          Cut m;
          if (!merge_leaves(a, b, &m)) continue;
          next.push_back(m);
        }
      }
      filter_cuts(&next, opt.merge_limit);
      acc = std::move(next);
      if (acc.empty()) break; // every merge overflowed 4 leaves
    }
    // Compute tables. Leaves the function does not depend on are kept:
    // dropping them would leave the dropped node inside the cone, and the
    // phase-C cut_tt revalidation walk (which must stay bounded by the
    // leaves) could then never re-derive the table. NPN canonicalization
    // handles dummy variables — degenerate functions have classes among
    // the 222 like any other.
    std::vector<Cut> ready;
    std::vector<uint16_t> tts;
    std::vector<uint8_t> tt_ok;
    cut_tts_batch(net, n, acc, &tts, &tt_ok);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      if (!tt_ok[i]) continue;
      acc[i].tt = tts[i];
      ready.push_back(acc[i]);
    }
    filter_cuts(&ready, opt.cut_limit);
    ready.push_back(trivial(n));
    if (cuts_enumerated) *cuts_enumerated += ready.size();
    out = std::move(ready);
  }
  return sets;
}

} // namespace rw
} // namespace rmsyn
