#include "rewrite/cuts.hpp"

#include <algorithm>
#include <unordered_map>

#include "network/eval_kernel.hpp"
#include "rewrite/npn.hpp"
#include "util/governor.hpp"

namespace rmsyn {
namespace rw {

namespace {

/// Nodes cut_tt may expand before it calls a cut stale.
constexpr int kMaxCone = 128;

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

/// `c`'s table re-expressed over the leaves of `m`, a superset of c's:
/// minterm x of m reads c's table at the minterm whose bit i is x's bit
/// for c's leaf i. Variables of m that c lacks stay don't-cares.
uint16_t stretch(const Cut& c, const Cut& m) {
  if (c.same_leaves(m)) return c.tt;
  std::array<int, 4> pos{};
  for (int i = 0, j = 0; i < c.nleaves; ++i, ++j) {
    while (m.leaves[j] != c.leaves[i]) ++j;
    pos[i] = j;
  }
  uint16_t r = 0;
  for (int x = 0; x < 16; ++x) {
    int y = 0;
    for (int i = 0; i < c.nleaves; ++i) y |= ((x >> pos[i]) & 1) << i;
    r |= static_cast<uint16_t>(((c.tt >> y) & 1) << x);
  }
  return r;
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

bool cut_tt(const Network& net, NodeId root, const Cut& cut, uint16_t* tt) {
  // The cone is evaluated on one word per node (leaf i = kProj4[i]); the
  // low 16 bits are the table.
  std::unordered_map<NodeId, uint64_t> val;
  val.reserve(16);
  for (int i = 0; i < cut.nleaves; ++i) {
    if (net.is_dead(cut.leaves[i])) return false;
    val.emplace(cut.leaves[i], kProj4[i]);
  }
  int visited = 0;
  std::vector<const uint64_t*> ins;
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
    if (t == GateType::Pi) return false; // escaped past the leaves
    const FaninSpan fi = net.fanins(n);
    bool ready = true;
    for (const NodeId f : fi) {
      if (!val.count(f)) {
        stack.push_back(f);
        ready = false;
      }
    }
    if (!ready) {
      if (++visited > kMaxCone) return false;
      continue;
    }
    stack.pop_back();
    // unordered_map values stay put across inserts, so the pointers hold.
    ins.clear();
    for (const NodeId f : fi) ins.push_back(&val[f]);
    uint64_t v = 0;
    eval_gate_words(t, ins.data(), ins.size(), &v, 1);
    val.emplace(n, v);
  }
  *tt = static_cast<uint16_t>(val[root]);
  return true;
}

std::vector<std::vector<Cut>> enumerate_cuts(const Network& net,
                                             const std::vector<NodeId>& order,
                                             const CutOptions& opt,
                                             uint64_t* cuts_enumerated,
                                             ResourceGovernor* gov) {
  const int fold_limit = std::max(2 * opt.cut_limit, 16);
  std::vector<std::vector<Cut>> sets(net.node_count());
  const auto trivial = [](NodeId n) {
    Cut c;
    c.leaves[0] = n;
    c.nleaves = 1;
    c.tt = kProj4[0];
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
    // Fold fanin cut sets into merged leaf sets, composing each merged
    // cut's table from its parts' tables with the gate's operator. The
    // seed is the operator's identity; Buf and Not fold as a 1-input XOR.
    const bool is_and = t == GateType::And || t == GateType::Nand;
    const bool is_or = t == GateType::Or || t == GateType::Nor;
    Cut seed;
    seed.tt = is_and ? 0xFFFF : 0x0000;
    std::vector<Cut> acc{seed};
    for (const NodeId f : net.fanins(n)) {
      std::vector<Cut> next;
      for (const Cut& a : acc) {
        for (const Cut& b : sets[f]) {
          Cut m;
          if (!merge_leaves(a, b, &m)) continue;
          const uint16_t ta = stretch(a, m), tb = stretch(b, m);
          m.tt = is_and ? ta & tb : is_or ? ta | tb : ta ^ tb;
          next.push_back(m);
        }
      }
      filter_cuts(&next, fold_limit);
      acc = std::move(next);
      if (acc.empty()) break; // every merge overflowed 4 leaves
    }
    if (t == GateType::Nand || t == GateType::Nor || t == GateType::Xnor ||
        t == GateType::Not)
      for (Cut& c : acc) c.tt = static_cast<uint16_t>(~c.tt);
    // Leaves the function does not depend on are kept: dropping them would
    // leave the dropped node inside the cone, and the phase-C cut_tt
    // revalidation walk (which must stay bounded by the leaves) could then
    // never re-derive the table. NPN canonicalization handles dummy
    // variables — degenerate functions have classes among the 222 like
    // any other.
    filter_cuts(&acc, opt.cut_limit);
    acc.push_back(trivial(n));
    if (cuts_enumerated) *cuts_enumerated += acc.size();
    out = std::move(acc);
  }
  return sets;
}

} // namespace rw
} // namespace rmsyn
