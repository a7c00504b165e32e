#include "core/redundancy.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "equiv/equiv.hpp"
#include "network/transform.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace rmsyn {

PatternSet fprm_pattern_set(std::size_t num_pis,
                            const std::vector<FprmForm>& forms,
                            bool include_sa1, std::size_t max_patterns) {
  // Exact pattern count, so every per-PI row is allocated once, zeroed.
  std::size_t expected = 1;
  for (const auto& form : forms) {
    expected += 2;
    for (const auto& cube : form.cubes)
      expected += 1 + (include_sa1 ? cube.count() : 0);
  }
  PatternSet ps(num_pis, std::min(expected, max_patterns));
  const std::size_t total = ps.num_patterns;

  // Pattern 0 is the global all-zero assignment (the AZ pattern under
  // all-positive polarity). Every pattern leaves the PIs outside its form's
  // support at 0, so writing a pattern only sets its support bits that are
  // 1, read off a mask over support positions.
  std::size_t p = 1;
  for (const auto& form : forms) {
    if (p >= total) break;
    // az: the value each support variable takes when its literal is 0.
    BitVec az(form.support.size());
    for (std::size_t i = 0; i < az.size(); ++i)
      az.set(i, !form.polarity.get(static_cast<std::size_t>(form.support[i])));
    BitVec ao = az;
    ao.flip_all();
    // Writes pattern p: support position i is 1 iff bit i of word_of is.
    const auto emit = [&](auto&& word_of) {
      for (std::size_t w = 0; w < az.words(); ++w)
        for (uint64_t x = word_of(w); x != 0; x &= x - 1) {
          const std::size_t i =
              (w << 6) + static_cast<std::size_t>(std::countr_zero(x));
          ps.bits[static_cast<std::size_t>(form.support[i])].set(p);
        }
      ++p;
    };
    emit([&](std::size_t w) { return az.word(w); }); // AZ under this polarity
    if (p < total) emit([&](std::size_t w) { return ao.word(w); }); // AO

    for (const auto& cube : form.cubes) {
      if (p >= total) break;
      // OC pattern: literals of the cube at 1, all other literals at 0.
      emit([&](std::size_t w) { return az.word(w) ^ cube.word(w); });
      if (!include_sa1) continue;
      // SA1 patterns: OC with one cube literal dropped to 0.
      for (std::size_t i = cube.first_set(); i != BitVec::npos && p < total;
           i = cube.next_set(i + 1)) {
        const uint64_t drop = uint64_t{1} << (i & 63);
        emit([&](std::size_t w) {
          return az.word(w) ^ cube.word(w) ^ (w == (i >> 6) ? drop : 0);
        });
      }
    }
  }
  return ps;
}

namespace {

/// Candidate replacement gates for a 2-input XOR whose reachable/observable
/// input-pattern set is incomplete, cheapest first. Each entry gives the
/// gate's value on patterns (g,h) = (0,0),(0,1),(1,0),(1,1) as a 4-bit mask
/// (bit index = g*2+h) plus a builder.
struct Replacement {
  uint8_t truth; // bit (g*2+h) = output value
  enum class Kind {
    Const0, Const1, WireG, WireH, NotG, NotH,
    And, Or, AndGnotH, AndNotGH, Nand, Nor, Xor, Xnor
  } kind;
  int cost; // rough 2-input AND/OR gate cost (inverters free)
};

constexpr Replacement kReplacements[] = {
    {0b0000, Replacement::Kind::Const0, 0},
    {0b1111, Replacement::Kind::Const1, 0},
    {0b1100, Replacement::Kind::WireG, 0},
    {0b1010, Replacement::Kind::WireH, 0},
    {0b0011, Replacement::Kind::NotG, 0},
    {0b0101, Replacement::Kind::NotH, 0},
    {0b1000, Replacement::Kind::And, 1},
    {0b1110, Replacement::Kind::Or, 1},
    {0b0100, Replacement::Kind::AndGnotH, 1},
    {0b0010, Replacement::Kind::AndNotGH, 1},
    {0b0111, Replacement::Kind::Nand, 1},
    {0b0001, Replacement::Kind::Nor, 1},
    {0b0110, Replacement::Kind::Xor, 3},
    {0b1001, Replacement::Kind::Xnor, 3},
};

constexpr uint8_t kXorTruth = 0b0110;

/// Applies a replacement in place; returns true when the gate actually
/// changed (i.e. the chosen kind is not Xor).
bool apply_replacement(Network& net, NodeId n, Replacement::Kind kind,
                       NodeId g, NodeId h) {
  using K = Replacement::Kind;
  switch (kind) {
    case K::Xor: return false;
    case K::Const0: net.rewrite_gate(n, GateType::Buf, {Network::kConst0}); break;
    case K::Const1: net.rewrite_gate(n, GateType::Buf, {Network::kConst1}); break;
    case K::WireG: net.rewrite_gate(n, GateType::Buf, {g}); break;
    case K::WireH: net.rewrite_gate(n, GateType::Buf, {h}); break;
    case K::NotG: net.rewrite_gate(n, GateType::Not, {g}); break;
    case K::NotH: net.rewrite_gate(n, GateType::Not, {h}); break;
    case K::And: net.rewrite_gate(n, GateType::And, {g, h}); break;
    case K::Or: net.rewrite_gate(n, GateType::Or, {g, h}); break;
    case K::AndGnotH:
      net.rewrite_gate(n, GateType::And, {g, net.add_not(h)});
      break;
    case K::AndNotGH:
      net.rewrite_gate(n, GateType::And, {net.add_not(g), h});
      break;
    case K::Nand: net.rewrite_gate(n, GateType::Nand, {g, h}); break;
    case K::Nor: net.rewrite_gate(n, GateType::Nor, {g, h}); break;
    case K::Xnor: net.rewrite_gate(n, GateType::Xnor, {g, h}); break;
  }
  return true;
}

/// Lazily maintained node-function table over one BDD manager.
class NodeFunctions {
public:
  NodeFunctions(BddManager& mgr, const Network& net) : mgr_(mgr), net_(net) {
    refresh_all();
  }

  void refresh_all() {
    f_.assign(net_.node_count(), BddManager::kFalse);
    known_.assign(net_.node_count(), false);
    f_[Network::kConst1] = mgr_.bdd_true();
    known_[Network::kConst0] = known_[Network::kConst1] = true;
    for (std::size_t i = 0; i < net_.pi_count(); ++i) {
      f_[net_.pis()[i]] = mgr_.var(static_cast<int>(i));
      known_[net_.pis()[i]] = true;
    }
  }

  BddRef of(NodeId n) {
    grow();
    if (known_[n]) return f_[n];
    // Iterative evaluation of the cone below n.
    std::vector<NodeId> stack{n};
    while (!stack.empty()) {
      const NodeId m = stack.back();
      if (known_[m]) { stack.pop_back(); continue; }
      bool ready = true;
      for (const NodeId fi : net_.fanins(m)) {
        if (fi < known_.size() && !known_[fi]) {
          stack.push_back(fi);
          ready = false;
        }
      }
      if (!ready) continue;
      f_[m] = compute(m);
      known_[m] = true;
      stack.pop_back();
    }
    return f_[n];
  }

  /// Marks a node (and everything above it) stale after a function-changing
  /// rewrite.
  void invalidate(NodeId /*n*/) {
    grow();
    // Conservative: after a function-changing rewrite every internal node
    // may be stale; recompute everything above by clearing all non-leaf
    // entries (cheap at the network sizes this pass runs on).
    for (NodeId m = 0; m < known_.size(); ++m) {
      const GateType t = net_.type(m);
      if (t != GateType::Pi && t != GateType::Const0 && t != GateType::Const1)
        known_[m] = false;
    }
  }

private:
  void grow() {
    if (f_.size() < net_.node_count()) {
      f_.resize(net_.node_count(), BddManager::kFalse);
      known_.resize(net_.node_count(), false);
    }
  }

  BddRef compute(NodeId n) {
    if (net_.type(n) == GateType::Pi) return f_[n];
    ops_.clear();
    for (const NodeId g : net_.fanins(n)) ops_.push_back(f_[g]);
    return gate_bdd(mgr_, net_.type(n), ops_);
  }

  BddManager& mgr_;
  const Network& net_;
  std::vector<BddRef> f_;
  std::vector<bool> known_;
  std::vector<BddRef> ops_; ///< compute()'s scratch operands
};

} // namespace

Network remove_xor_redundancy(const Network& net,
                              const std::vector<FprmForm>& forms,
                              const RedundancyOptions& opt,
                              RedundancyStats* stats_out) {
  RedundancyStats stats;
  // Set-up: the prepared network, its reference copy and the golden output
  // BDDs. An explicit span, because what it builds outlives the span.
  obs::Span setup_span("redundancy-setup");
  Network work = decompose2(strash(net));
  const Network reference = work; // for the final equivalence assertion

  BddManager mgr(static_cast<int>(work.pi_count()));
  mgr.set_governor(opt.governor);
  ResourceGovernor* gov = opt.governor;
  const auto out_of_budget = [&] { return gov != nullptr && gov->exhausted(); };
  NodeFunctions funcs(mgr, work);

  // Golden output functions — every phase must preserve these.
  std::vector<BddRef> golden;
  golden.reserve(work.po_count());
  for (std::size_t i = 0; i < work.po_count(); ++i)
    golden.push_back(funcs.of(work.po(i)));
  for (const BddRef g : golden) {
    if (BddManager::is_invalid(g)) {
      // Budget died before the reference functions existed; nothing can be
      // confirmed, so hand back the (equivalent) prepared network as-is.
      if (stats_out != nullptr) *stats_out = stats;
      return strash(work);
    }
  }
  setup_span.close_at(obs::now_ns());

  // ---- Step 1: simulate the FPRM-derived pattern set, record which input
  // patterns occur at each XOR gate.
  const PatternSet patterns = [&] {
    RMSYN_SPAN("redundancy-patterns");
    return forms.empty()
               ? random_patterns(work.pi_count(),
                                 std::min<std::size_t>(opt.max_patterns, 1024),
                                 0xFEEDFACE)
               : fprm_pattern_set(work.pi_count(), forms,
                                  /*include_sa1=*/false, opt.max_patterns);
  }();
  std::vector<uint8_t> seen(work.node_count(), 0);
  if (opt.use_pattern_filter && patterns.num_patterns > 0) {
    RMSYN_SPAN("redundancy-sim");
    SimState sim(work, patterns);
    // Bit (g*2+h) of seen[n] records that some pattern drives the XOR's
    // fanins to (g,h). Values keep their tail bits zero, but ~g & ~h does
    // not, so every term is masked to the live patterns of the last word.
    const std::size_t nw = (patterns.num_patterns + 63) / 64;
    const std::size_t tail = patterns.num_patterns % 64;
    const uint64_t last_live =
        tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
    for (NodeId n = 0; n < work.node_count(); ++n) {
      if (work.type(n) != GateType::Xor || work.fanins(n).size() != 2) continue;
      const BitVec& vg = sim.value(work.fanins(n)[0]);
      const BitVec& vh = sim.value(work.fanins(n)[1]);
      uint64_t any00 = 0, any01 = 0, any10 = 0, any11 = 0;
      for (std::size_t w = 0; w < nw; ++w) {
        const uint64_t live = w + 1 == nw ? last_live : ~uint64_t{0};
        const uint64_t g = vg.word(w), h = vh.word(w);
        any00 |= ~g & ~h & live;
        any01 |= ~g & h & live;
        any10 |= g & ~h & live;
        any11 |= g & h & live;
      }
      seen[n] |= static_cast<uint8_t>((any00 != 0 ? 1u : 0u) |
                                      (any01 != 0 ? 2u : 0u) |
                                      (any10 != 0 ? 4u : 0u) |
                                      (any11 != 0 ? 8u : 0u));
    }
    stats.sim.accumulate(sim.take_stats());
  }

  const auto topo = work.topo_order();

  // ---- Step 2: controllability reductions (Properties 3/4), POs first.
  std::vector<NodeId> xors;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it)
    if (work.type(*it) == GateType::Xor && work.fanins(*it).size() == 2)
      xors.push_back(*it);
  stats.xor_gates_before = xors.size();

  {
    RMSYN_SPAN("redundancy-controllability");
    for (const NodeId n : xors) {
      if (out_of_budget()) break;
      const NodeId g = work.fanins(n)[0];
      const NodeId h = work.fanins(n)[1];
      if (opt.use_pattern_filter && seen[n] == 0b1111) {
        // Property 8/9 fast path: all four patterns demonstrated by the
        // decidable pattern set — the gate is irreducible, no exact check.
        ++stats.pattern_pruned;
        continue;
      }
      // Decide controllability of each input pattern exactly.
      uint8_t reachable = seen[n];
      const BddRef fg = funcs.of(g);
      const BddRef fh = funcs.of(h);
      if (BddManager::is_invalid(fg) || BddManager::is_invalid(fh)) continue;
      for (unsigned idx = 0; idx < 4; ++idx) {
        if (reachable & (1u << idx)) continue;
        ++stats.exact_checks;
        const BddRef eg = (idx & 2u) ? fg : mgr.bdd_not(fg);
        const BddRef eh = (idx & 1u) ? fh : mgr.bdd_not(fh);
        // A budget-tripped (invalid) conjunction compares != false, i.e. the
        // pattern counts as reachable — undecidable stays conservative.
        if (mgr.bdd_and(eg, eh) != mgr.bdd_false()) reachable |= (1u << idx);
      }
      if (reachable == 0b1111) continue;
      // Choose the cheapest gate agreeing with XOR on every reachable
      // pattern. This subsumes Properties 3 and 4 (and the (0,0) corner).
      for (const auto& rep : kReplacements) {
        if (((rep.truth ^ kXorTruth) & reachable) != 0) continue;
        if (apply_replacement(work, n, rep.kind, g, h)) {
          using K = Replacement::Kind;
          if (rep.kind == K::Or || rep.kind == K::Nor) ++stats.reduced_to_or;
          else if (rep.kind == K::Nand) ++stats.reduced_to_nand;
          else ++stats.reduced_to_andnot; // AND forms, wires and constants
        }
        break;
      }
      // Controllability rewrites preserve the node function; nothing to
      // invalidate, but new inverter nodes may have been added.
      (void)funcs.of(n);
    }
  }

  // ---- Step 3: observability domino (Properties 5-7).
  if (opt.observability_pass) {
    RMSYN_SPAN("redundancy-observability");
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 16 && !out_of_budget()) {
      changed = false;
      // The network maintains its fanout lists, so each wave only
      // recomputes liveness (rewrites orphan whole cones, which stay
      // linked into the lists until compact()).
      const std::vector<bool> live = work.live_mask();
#ifndef NDEBUG
      // Cross-check maintained lists against a full fanin rescan: every
      // live node's live-owner edge count must match.
      {
        std::vector<uint32_t> rescan(work.node_count(), 0);
        for (NodeId m = 0; m < work.node_count(); ++m)
          if (live[m])
            for (const NodeId fi : work.fanins(m)) ++rescan[fi];
        for (NodeId m = 0; m < work.node_count(); ++m) {
          if (!live[m]) continue;
          uint32_t maintained = 0;
          for (const NodeId fo : work.fanouts(m))
            if (live[fo]) ++maintained;
          assert(maintained == rescan[m]);
        }
      }
#endif
      // Sole live consumer of m: exactly one live-owner edge and zero PO
      // refs, else kNoNode. A consumer reading m twice disqualifies (two
      // edges), matching the rebuilt-list semantics this replaced.
      const auto sole_live_fanout = [&](NodeId m) -> NodeId {
        if (work.po_ref_count(m) != 0) return Network::kNoNode;
        NodeId only = Network::kNoNode;
        for (const NodeId fo : work.fanouts(m)) {
          if (!live[fo]) continue;
          if (only != Network::kNoNode) return Network::kNoNode;
          only = fo;
        }
        return only;
      };

      const auto order = work.topo_order();
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId n = *it;
        if (!live[n]) continue;
        if (work.type(n) != GateType::Xor || work.fanins(n).size() != 2)
          continue;
        NodeId v = sole_live_fanout(n);
        if (v == Network::kNoNode) continue;
        // Walk up through single-fanout inverters/buffers.
        NodeId below = n;
        while (work.type(v) == GateType::Not || work.type(v) == GateType::Buf) {
          const NodeId next = sole_live_fanout(v);
          if (next == Network::kNoNode) break;
          below = v;
          v = next;
        }
        const GateType vt = work.type(v);
        if (vt != GateType::And && vt != GateType::Or && vt != GateType::Nand &&
            vt != GateType::Nor)
          continue;
        // Local observability condition: the side inputs must be
        // non-controlling for n's value to matter at v.
        const bool and_like = vt == GateType::And || vt == GateType::Nand;
        // Local analysis requires `below` to feed v exactly once.
        if (std::count(work.fanins(v).begin(), work.fanins(v).end(), below) != 1)
          continue;
        BddRef obs = mgr.bdd_true();
        for (const NodeId s : work.fanins(v)) {
          if (s == below) continue;
          obs = and_like ? mgr.bdd_and(obs, funcs.of(s))
                         : mgr.bdd_and(obs, mgr.bdd_not(funcs.of(s)));
        }
        if (obs == mgr.bdd_true()) continue; // nothing masked
        if (BddManager::is_invalid(obs)) continue; // undecidable: keep gate

        const NodeId g = work.fanins(n)[0];
        const NodeId h = work.fanins(n)[1];
        const BddRef fg = funcs.of(g);
        const BddRef fh = funcs.of(h);
        if (BddManager::is_invalid(fg) || BddManager::is_invalid(fh)) continue;
        uint8_t care = 0;
        for (unsigned idx = 0; idx < 4; ++idx) {
          ++stats.exact_checks;
          const BddRef eg = (idx & 2u) ? fg : mgr.bdd_not(fg);
          const BddRef eh = (idx & 1u) ? fh : mgr.bdd_not(fh);
          const BddRef pat = mgr.bdd_and(eg, eh);
          if (mgr.bdd_and(pat, obs) != mgr.bdd_false()) care |= (1u << idx);
        }
        if (care == 0b1111) continue;
        for (const auto& rep : kReplacements) {
          if (((rep.truth ^ kXorTruth) & care) != 0) continue;
          if (apply_replacement(work, n, rep.kind, g, h)) {
            ++stats.observability_reductions;
            changed = true;
            // The node's own function changed on masked patterns.
            funcs.invalidate(n);
          }
          break;
        }
        if (changed) break; // rebuild fanout structure before continuing
      }
    }
  }

  // ---- Step 4: first-level AND/OR fanin redundancy via OC/SA1 pattern
  // filtering plus exact confirmation.
  if (opt.and_fanin_pass) {
    const PatternSet sa_patterns = [&] {
      RMSYN_SPAN("redundancy-patterns");
      return forms.empty() ? patterns
                           : fprm_pattern_set(work.pi_count(), forms,
                                              /*include_sa1=*/true,
                                              opt.max_patterns);
    }();
    RMSYN_SPAN("redundancy-fanin");

    // Cached good-simulation of `work`: each candidate rewrite below is a
    // single dirty node whose fanout cone is re-simulated incrementally —
    // the old code re-ran simulate() over the whole network per candidate.
    SimState sim(work, sa_patterns);
    const auto outputs_match_golden = [&](const Network& candidate) {
      funcs.invalidate(0);
      bool ok = true;
      for (std::size_t i = 0; i < candidate.po_count() && ok; ++i) {
        const BddRef fv = funcs.of(candidate.po(i));
        // An invalid (budget-tripped) function is never a match — accepting
        // a removal needs a positive proof of equality.
        ok = !BddManager::is_invalid(fv) && fv == golden[i];
      }
      return ok;
    };

    // Accepted removals preserve the PO values on every pattern (confirmed
    // exactly), so `base_po_values` stays valid across the whole pass.
    const auto base_po_values = sim.po_values();
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 4 && !out_of_budget()) {
      changed = false;
      const auto order = work.topo_order();
      for (auto it = order.rbegin(); it != order.rend() && !out_of_budget();
           ++it) {
        const NodeId n = *it;
        const GateType t = work.type(n);
        if (t != GateType::And && t != GateType::Or) continue;
        std::size_t k = 0;
        while (k < work.fanins(n).size() && work.fanins(n).size() >= 2) {
          if (out_of_budget()) break;
          // Dropping fanin k = stuck-at-noncontrolling (s-a-1 for AND,
          // s-a-0 for OR).
          const std::vector<NodeId> saved_fi = work.fanins(n);
          std::vector<NodeId> rest;
          for (std::size_t j = 0; j < saved_fi.size(); ++j)
            if (j != k) rest.push_back(saved_fi[j]);
          if (rest.size() == 1)
            work.rewrite_gate(n, GateType::Buf, {rest[0]});
          else
            work.rewrite_gate(n, t, rest);

          // Pattern filter: when the OC/SA1 set already distinguishes the
          // candidate, the fault is testable — skip the exact check.
          sim.resimulate(n);
          bool candidate_ok = sim.po_values_match(base_po_values);
          if (candidate_ok) {
            ++stats.exact_checks;
            candidate_ok = outputs_match_golden(work);
          } else {
            ++stats.pattern_pruned;
          }
          if (candidate_ok) {
            ++stats.fanins_removed;
            changed = true;
            if (work.type(n) != t) break; // became a buffer
            // Re-test the same position (a new fanin shifted into it).
          } else {
            work.rewrite_gate(n, t, saved_fi);
            sim.resimulate(n);
            funcs.invalidate(n);
            ++k;
          }
        }
      }
    }
    stats.sim.accumulate(sim.take_stats());
  }

  obs::Span verify_span("redundancy-verify");
  Network result = strash(work);

  // Final safety net: the whole procedure must be function-preserving.
  // Every accepted rewrite carries its own exact proof, so when the budget
  // is already spent the (governed) re-check may come back undecided —
  // that is not a failure.
  const auto check = check_equivalence(reference, result, 0xC0FFEE, gov);
  if (check.decided && !check.equivalent)
    throw std::logic_error("remove_xor_redundancy broke the network: " +
                           check.reason);
  verify_span.close_at(obs::now_ns());

  // Post-transform XOR population for the stats.
  for (NodeId n = 0; n < result.node_count(); ++n)
    if (result.type(n) == GateType::Xor) ++stats.xor_gates_after;

  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

} // namespace rmsyn
