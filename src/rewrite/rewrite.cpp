#include "rewrite/rewrite.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bdd/bdd.hpp"
#include "equiv/equiv.hpp"
#include "network/network.hpp"
#include "network/simulate.hpp"
#include "network/stats.hpp"
#include "obs/trace.hpp"
#include "rewrite/cuts.hpp"
#include "rewrite/database.hpp"
#include "rewrite/npn.hpp"
#include "sched/pool.hpp"
#include "sim/sim.hpp"
#include "util/governor.hpp"
#include "util/stopwatch.hpp"

namespace rmsyn {
namespace rw {

namespace {

using NodeSet = std::unordered_set<NodeId>;

/// The paper's cost of one node in 2-input AND/OR gate equivalents,
/// mirroring network_stats(): n-ary AND/OR/NAND/NOR = n-1, XOR/XNOR =
/// 3(n-1), inverters and buffers free.
int gate_cost2(const Network& net, NodeId n) {
  const int k = static_cast<int>(net.fanin_count(n));
  switch (net.type(n)) {
    case GateType::And:
    case GateType::Or:
    case GateType::Nand:
    case GateType::Nor:
      return k < 2 ? 0 : k - 1;
    case GateType::Xor:
    case GateType::Xnor:
      return k < 2 ? 0 : 3 * (k - 1);
    default:
      return 0;
  }
}

/// Cost of the maximum fanout-free cone of `root` over the given cut:
/// root's own gate plus every node that becomes unreferenced when root's
/// old fanins are disconnected (simulated by local deref counting, stopping
/// at cut leaves, PIs, constants and PO-referenced nodes). Dying nodes land
/// in `mffc` (root excluded — it is rewritten in place, never deleted).
int mffc_saved(const Network& net, NodeId root, const Cut& cut,
               std::vector<NodeId>* mffc) {
  NodeSet leafset(cut.leaves.begin(), cut.leaves.begin() + cut.nleaves);
  std::unordered_map<NodeId, uint32_t> ref;
  int saved = gate_cost2(net, root);
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (const NodeId f : net.fanins(n)) {
      const GateType t = net.type(f);
      if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
        continue;
      if (leafset.count(f)) continue;
      auto [it, inserted] = ref.try_emplace(f, net.ref_count(f));
      (void)inserted;
      if (it->second == 0) continue;
      if (--(it->second) == 0 && net.po_ref_count(f) == 0) {
        saved += gate_cost2(net, f);
        if (mffc) mffc->push_back(f);
        stack.push_back(f);
      }
    }
  }
  return saved;
}

/// A resolved value while materializing a database structure: a concrete
/// network node, or (in dry runs) a node that WOULD be created. `tt` is the
/// value over the cut's 4-variable minterm space.
struct RVal {
  NodeId id = Network::kNoNode;
  bool fresh = false; ///< would be / was newly created
  uint16_t tt = 0;
};

struct BuildOutcome {
  bool ok = false;
  int added_cost = 0;            ///< 2-input gate cost of genuinely new nodes
  std::vector<NodeId> new_ids;   ///< commit mode: created nodes, topo order
  NodeId top = Network::kNoNode; ///< commit mode: fanin for the root rewrite
  bool top_neg = false;          ///< commit mode: root becomes Not instead of Buf
};

/// Finds an existing live node computing exactly (type, fanins) that is
/// safe to feed the root's new cone: level(s) <= level(root) guarantees the
/// root is not in s's fanin cone (levels are maintained), so no cycle can
/// form; MFFC members are excluded so a "shared" node is never one the gain
/// accounting already counted as dying.
NodeId find_shared(const Network& net, GateType t, NodeId a, NodeId b,
                   NodeId root, const NodeSet& excl) {
  const uint32_t root_level = net.level(root);
  for (const NodeId s : net.fanouts(a)) {
    if (s == root || net.is_dead(s) || net.type(s) != t) continue;
    if (net.level(s) > root_level || excl.count(s)) continue;
    const FaninSpan fi = net.fanins(s);
    if (t == GateType::Not) {
      if (fi.size() == 1 && fi[0] == a) return s;
    } else if (fi.size() == 2 &&
               ((fi[0] == a && fi[1] == b) || (fi[0] == b && fi[1] == a))) {
      return s;
    }
  }
  return Network::kNoNode;
}

/// Materializes (or, with net_mut == null, only costs) the database entry
/// over the cut's leaves after un-canonicalization. The dry run and the
/// commit run walk identically — sharing decisions depend only on the
/// current network — so the committed cost always equals the estimate.
BuildOutcome build_structure(Network* net_mut, const Network& net, NodeId root,
                             const DbEntry& e, const NpnTransform& xf,
                             const Cut& cut, const NodeSet& excl) {
  BuildOutcome out;
  const bool commit = net_mut != nullptr;

  // Invert the permutation: canonical input y_i is fed from cut leaf
  // inv[i], complemented when the transform negates that original input.
  std::array<int, 4> inv{};
  for (int j = 0; j < 4; ++j) inv[xf.perm[j]] = j;

  // Resolutions per database ref (0 = const0, 1..4 = inputs, 5.. = nodes),
  // plus a cache of their complements so no Not is planned twice.
  std::vector<RVal> res(5 + e.nodes.size());
  std::vector<RVal> res_neg(5 + e.nodes.size());
  std::vector<bool> have(5 + e.nodes.size(), false);
  std::vector<bool> have_neg(5 + e.nodes.size(), false);

  const auto negate = [&](const RVal& v) -> RVal {
    if (!v.fresh && v.id == Network::kConst0)
      return RVal{Network::kConst1, false, static_cast<uint16_t>(~v.tt)};
    if (!v.fresh && v.id == Network::kConst1)
      return RVal{Network::kConst0, false, static_cast<uint16_t>(~v.tt)};
    if (!v.fresh) {
      const NodeId s = find_shared(net, GateType::Not, v.id, Network::kNoNode,
                                   root, excl);
      if (s != Network::kNoNode)
        return RVal{s, false, static_cast<uint16_t>(~v.tt)};
    }
    if (commit) {
      const NodeId id = net_mut->add_gate(GateType::Not, {v.id});
      out.new_ids.push_back(id);
      return RVal{id, true, static_cast<uint16_t>(~v.tt)};
    }
    return RVal{Network::kNoNode, true, static_cast<uint16_t>(~v.tt)};
  };

  const auto resolve_ref = [&](unsigned r) -> RVal {
    if (have[r]) return res[r];
    RVal v;
    if (r == 0) {
      v = RVal{Network::kConst0, false, 0x0000};
    } else { // inputs y0..y3
      const int j = inv[r - 1];
      if (j >= cut.nleaves) {
        // Padded input: the canonical function cannot depend on it, so
        // constant 0 preserves the function.
        v = RVal{Network::kConst0, false, 0x0000};
      } else {
        v = RVal{cut.leaves[j], false, kProj4[j]};
        if ((xf.neg >> j) & 1) v = negate(v);
      }
    }
    have[r] = true;
    res[r] = v;
    return v;
  };

  const auto resolve_lit = [&](DbLit l) -> RVal {
    const unsigned r = db_ref(l);
    if (!db_neg(l)) return resolve_ref(r);
    if (have_neg[r]) return res_neg[r];
    const RVal v = negate(resolve_ref(r));
    have_neg[r] = true;
    res_neg[r] = v;
    return v;
  };

  for (std::size_t i = 0; i < e.nodes.size(); ++i) {
    const DbNode& dn = e.nodes[i];
    const RVal a = resolve_lit(dn.a);
    const RVal b = resolve_lit(dn.b);
    const uint16_t tt = dn.is_xor ? static_cast<uint16_t>(a.tt ^ b.tt)
                                  : static_cast<uint16_t>(a.tt & b.tt);
    const GateType gt = dn.is_xor ? GateType::Xor : GateType::And;
    RVal v;
    if (!a.fresh && !b.fresh) {
      const NodeId s = find_shared(net, gt, a.id, b.id, root, excl);
      if (s != Network::kNoNode) v = RVal{s, false, tt};
    }
    if (v.id == Network::kNoNode && !v.fresh) {
      out.added_cost += dn.is_xor ? 3 : 1;
      if (commit) {
        const NodeId id = net_mut->add_gate(gt, {a.id, b.id});
        out.new_ids.push_back(id);
        v = RVal{id, true, tt};
      } else {
        v = RVal{Network::kNoNode, true, tt};
      }
    }
    have[5 + i] = true;
    res[5 + i] = v;
  }

  // Root: fold the root literal's phase and the output complement into the
  // root gate itself (Not instead of Buf), so no final inverter is built.
  const RVal base = resolve_ref(db_ref(e.root));
  const bool neg = db_neg(e.root) ^ xf.out_neg;
  const uint16_t built = neg ? static_cast<uint16_t>(~base.tt) : base.tt;
  if (built != cut.tt) return out; // ok = false
  out.ok = true;
  out.top = base.id;
  out.top_neg = neg;
  return out;
}

struct Candidate {
  Cut cut;
  NpnTransform xform;
  const DbEntry* entry = nullptr;
  int gain = 0;
};

struct EvalOut {
  Candidate cand;
  uint32_t db_hits = 0;
};

/// Phase B: pure function of the frozen network — picks the best
/// positive-gain replacement for one root (ties: first cut in priority
/// order), so results are identical no matter which worker runs it.
EvalOut eval_root(const Network& net, NodeId root,
                  const std::vector<std::vector<Cut>>& cutsets,
                  const RewriteDb& db, NpnCache& cache) {
  EvalOut out;
  for (const Cut& cut : cutsets[root]) {
    if (cut.nleaves == 1 && cut.leaves[0] == root) continue; // trivial
    const NpnResult nr = cache.canonicalize(cut.tt);
    const DbEntry* e = db.lookup(nr.canon);
    if (!e) continue;
    ++out.db_hits;
    std::vector<NodeId> mffc;
    const int saved = mffc_saved(net, root, cut, &mffc);
    // gain <= saved even with full sharing, so this cut cannot win.
    if (saved <= out.cand.gain) continue;
    NodeSet excl(mffc.begin(), mffc.end());
    excl.insert(root);
    const BuildOutcome bo =
        build_structure(nullptr, net, root, *e, nr.xform, cut, excl);
    if (!bo.ok) continue;
    const int gain = saved - bo.added_cost;
    if (gain > out.cand.gain) {
      out.cand.cut = cut;
      out.cand.xform = nr.xform;
      out.cand.entry = e;
      out.cand.gain = gain;
    }
  }
  return out;
}

/// Recycles every node in `seeds` (and, transitively, their fanins) that is
/// fully unreferenced. recycle() unlinks the node's own fanin edges, so the
/// cascade's ref counts stay maintained throughout.
void recycle_cascade(Network& net, const std::vector<NodeId>& seeds) {
  std::vector<NodeId> stack(seeds);
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    const GateType t = net.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    if (net.is_dead(n) || net.ref_count(n) != 0 || net.po_ref_count(n) != 0)
      continue;
    const std::vector<NodeId> fins = net.fanins(n).to_vector();
    net.recycle(n);
    for (const NodeId f : fins) stack.push_back(f);
  }
}

/// Independent functional check of the COMMITTED cone: rebuilds root's
/// function over the cut leaves in a small BDD manager and compares it to
/// the cut's table. Exercises different machinery than the 16-bit
/// pre-check, so bookkeeping bugs in the materializer cannot slip through.
bool bdd_cone_check(BddManager& mgr, const Network& net, NodeId root,
                    const Cut& cut) {
  std::unordered_map<NodeId, BddRef> val;
  for (int i = 0; i < cut.nleaves; ++i) val.emplace(cut.leaves[i], mgr.var(i));
  int visited = 0;
  std::vector<BddRef> ops;
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    if (val.count(n)) {
      stack.pop_back();
      continue;
    }
    const GateType t = net.type(n);
    if (t == GateType::Pi || net.is_dead(n)) return false;
    bool ready = true;
    for (const NodeId f : net.fanins(n)) {
      if (!val.count(f)) {
        stack.push_back(f);
        ready = false;
      }
    }
    if (!ready) {
      if (++visited > 256) return false;
      continue;
    }
    stack.pop_back();
    ops.clear();
    for (const NodeId f : net.fanins(n)) ops.push_back(val[f]);
    val.emplace(n, gate_bdd(mgr, t, ops));
  }
  BddRef expect = mgr.bdd_false();
  for (int m = 0; m < 16; ++m) {
    if (!((cut.tt >> m) & 1)) continue;
    BddRef cube = mgr.bdd_true();
    for (int j = 0; j < 4; ++j)
      cube = mgr.bdd_and(cube, mgr.literal(j, (m >> j) & 1));
    expect = mgr.bdd_or(expect, cube);
  }
  return val[root] == expect;
}

} // namespace

RewriteStats rewrite_network(Network& net, const RewriteOptions& opt,
                             SimStats* sim_out) {
  // No pass-level span here: synthesize() already wraps this call in the
  // "rewrite" ScopedStage; the per-phase spans below are the new detail.
  RewriteStats st;
  st.lits_before = network_stats(net).lits;
  st.lits_after = st.lits_before;

  RewriteDb local_db;
  const RewriteDb* db = nullptr;
  if (!opt.db_path.empty()) {
    local_db = RewriteDb::load_file(opt.db_path);
    db = &local_db;
  } else {
    db = &RewriteDb::instance();
  }

  ResourceGovernor* gov = opt.governor;
  ThreadPool* pool =
      (opt.pool != nullptr && opt.pool->worker_count() > 0) ? opt.pool : nullptr;
  BddManager check_mgr(4, /*cache_bits=*/10);

  const CutOptions cut_opt{opt.cut_limit};

  for (int pass = 0; pass < opt.max_passes; ++pass) {
    if (gov && gov->exhausted()) break;
    ++st.passes;

    // ---- Phase A: serial cut enumeration over the frozen network --------
    Stopwatch phase_sw;
    std::vector<NodeId> order;
    std::vector<std::vector<Cut>> cutsets;
    {
      RMSYN_SPAN("rewrite-cuts");
      order = net.topo_order();
      cutsets = enumerate_cuts(net, order, cut_opt, &st.cuts_enumerated, gov);
    }
    st.cuts_seconds += phase_sw.seconds();
    if (gov && gov->exhausted()) break;

    std::vector<NodeId> roots;
    roots.reserve(order.size());
    for (const NodeId n : order)
      if (gate_cost2(net, n) > 0) roots.push_back(n);
    st.roots += roots.size();

    // ---- Phase B: parallel candidate evaluation (network still frozen) --
    phase_sw.restart();
    std::vector<EvalOut> outs(roots.size());
    {
      RMSYN_SPAN("rewrite-evaluate");
      if (pool && roots.size() >= 32) {
        std::vector<NpnCache> caches(pool->slot_count());
        constexpr std::size_t kChunk = 64;
        std::vector<Future<bool>> futs;
        for (std::size_t begin = 0; begin < roots.size(); begin += kChunk) {
          const std::size_t end = std::min(begin + kChunk, roots.size());
          futs.push_back(pool->submit([&, begin, end] {
            NpnCache& cache = caches[pool->current_slot()];
            for (std::size_t i = begin; i < end; ++i) {
              if (gov && !gov->poll()) return false;
              outs[i] = eval_root(net, roots[i], cutsets, *db, cache);
            }
            return true;
          }));
        }
        for (auto& f : futs) pool->wait(f);
      } else {
        NpnCache cache;
        for (std::size_t i = 0; i < roots.size(); ++i) {
          if (gov && !gov->poll()) break;
          outs[i] = eval_root(net, roots[i], cutsets, *db, cache);
        }
      }
    }
    st.eval_seconds += phase_sw.seconds();
    if (gov && gov->exhausted()) break; // nothing mutated yet: clean unwind
    for (const EvalOut& o : outs) {
      st.db_hits += o.db_hits;
      if (o.cand.gain > 0) ++st.candidates;
    }

    // ---- Phase C: serial apply with verify-then-commit ------------------
    phase_sw.restart();
    RMSYN_SPAN("rewrite-apply"); // closes at the pass boundary, like phase C
    PatternSet patterns =
        random_patterns(net.pi_count(), static_cast<std::size_t>(opt.sim_patterns),
                        opt.sim_seed);
    // Pattern words shard across the pool during the construction-time
    // full pass; the verify compares below are vectorized in SimState.
    SimState sim(net, std::move(patterns), opt.pool);
    const std::vector<BitVec> baseline = sim.po_values();

    uint64_t applied_this_pass = 0;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      if (gov && !gov->poll()) break;
      const Candidate& cand = outs[i].cand;
      if (cand.entry == nullptr || cand.gain <= 0) continue;
      const NodeId root = roots[i];

      // Re-validate against the current network: earlier commits may have
      // recycled leaves, restructured the cone or changed the gain.
      if (net.is_dead(root) || gate_cost2(net, root) == 0) {
        ++st.stale_skips;
        continue;
      }
      uint16_t now_tt = 0;
      if (!cut_tt(net, root, cand.cut, &now_tt) || now_tt != cand.cut.tt) {
        ++st.stale_skips;
        continue;
      }
      std::vector<NodeId> mffc;
      const int saved = mffc_saved(net, root, cand.cut, &mffc);
      NodeSet excl(mffc.begin(), mffc.end());
      excl.insert(root);
      const BuildOutcome dry =
          build_structure(nullptr, net, root, *cand.entry, cand.xform, cand.cut, excl);
      if (!dry.ok || saved - dry.added_cost <= 0) {
        ++st.stale_skips;
        continue;
      }

      // Commit: materialize the structure, swing the root onto it.
      const GateType saved_type = net.type(root);
      const std::vector<NodeId> saved_fanins = net.fanins(root).to_vector();
      const BuildOutcome built =
          build_structure(&net, net, root, *cand.entry, cand.xform, cand.cut, excl);
      if (!built.ok) { // cannot happen after a clean dry run; stay safe
        recycle_cascade(net, built.new_ids);
        ++st.stale_skips;
        continue;
      }
      net.rewrite_gate(root, built.top_neg ? GateType::Not : GateType::Buf,
                       {built.top});

      std::vector<NodeId> dirty = built.new_ids;
      dirty.push_back(root);
      sim.resimulate(dirty);

      const bool sim_ok = sim.po_values_match(baseline);
      const bool bdd_ok =
          sim_ok && bdd_cone_check(check_mgr, net, root, cand.cut);
      if (!sim_ok || !bdd_ok) {
        if (!sim_ok) ++st.sim_rejects;
        else ++st.bdd_rejects;
        net.rewrite_gate(root, saved_type, saved_fanins);
        recycle_cascade(net, {built.new_ids.rbegin(), built.new_ids.rend()});
        sim.resimulate(root);
        maybe_check_invariants(net, "rewrite-revert");
        continue;
      }

      // Verified: reclaim the dead MFFC.
      recycle_cascade(net, saved_fanins);
      maybe_check_invariants(net, "rewrite-apply");
      ++st.replacements;
      ++applied_this_pass;
    }
    if (sim_out) sim_out->accumulate(sim.take_stats());
    st.apply_seconds += phase_sw.seconds();

    st.lits_after = network_stats(net).lits;
    if (applied_this_pass == 0) break;
    if (gov && gov->exhausted()) break;
  }

  st.gain_lits =
      st.lits_before > st.lits_after ? st.lits_before - st.lits_after : 0;
  return st;
}

} // namespace rw
} // namespace rmsyn
