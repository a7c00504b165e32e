#include "equiv/equiv.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "network/simulate.hpp"
#include "network/transform.hpp"
#include "sim/sim.hpp"

namespace rmsyn {

namespace {

/// BDD of node n from the BDDs of its fanins (PIs and constants: f[n]).
/// `ops` is the caller's scratch operand vector.
BddRef node_bdd(BddManager& mgr, const Network& net, NodeId n,
                const std::vector<BddRef>& f, std::vector<BddRef>& ops) {
  const GateType t = net.type(n);
  if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
    return f[n];
  ops.clear();
  for (const NodeId g : net.fanins(n)) ops.push_back(f[g]);
  return gate_bdd(mgr, t, ops);
}

/// The PI and constant entries of a node_bdds vector.
std::vector<BddRef> leaf_bdds(BddManager& mgr, const Network& net) {
  if (mgr.nvars() < static_cast<int>(net.pi_count()))
    throw std::invalid_argument("node_bdds: manager too narrow");
  std::vector<BddRef> f(net.node_count(), mgr.bdd_false());
  f[Network::kConst1] = mgr.bdd_true();
  for (std::size_t i = 0; i < net.pi_count(); ++i)
    f[net.pis()[i]] = mgr.var(static_cast<int>(i));
  return f;
}

/// Builds and pins the BDD of every node in the fanin cone of `root` that
/// is not `built` yet, fanins first, so cones shared between calls are
/// built once.
void build_cone(BddManager& mgr, const Network& net, NodeId root,
                std::vector<BddRef>& f, std::vector<bool>& built) {
  std::vector<std::pair<NodeId, std::size_t>> stack;
  std::vector<BddRef> ops;
  if (!built[root]) stack.emplace_back(root, 0);
  while (!stack.empty()) {
    const auto [n, k] = stack.back();
    if (k < net.fanin_count(n)) {
      ++stack.back().second;
      const NodeId g = net.fanin(n, k);
      if (!built[g]) stack.emplace_back(g, 0);
    } else {
      f[n] = mgr.ref(node_bdd(mgr, net, n, f, ops));
      built[n] = true;
      stack.pop_back();
    }
  }
}

/// `partial` with its verdict withdrawn: a governed BDD phase ran out of
/// budget. Pairs already proved stay counted.
EquivResult undecided(EquivResult partial) {
  partial.equivalent = false;
  partial.reason = "equivalence undecided: resource budget exhausted";
  partial.decided = false;
  return partial;
}

} // namespace

BddRef gate_bdd(BddManager& mgr, GateType t,
                const std::vector<BddRef>& operands) {
  BddRef acc = mgr.bdd_false();
  switch (t) {
    case GateType::Pi: case GateType::Const0: return acc;
    case GateType::Const1: return mgr.bdd_true();
    case GateType::Buf: return operands[0];
    case GateType::Not: return mgr.bdd_not(operands[0]);
    case GateType::And: case GateType::Nand:
      acc = mgr.bdd_true();
      for (const BddRef g : operands) acc = mgr.bdd_and(acc, g);
      break;
    case GateType::Or: case GateType::Nor:
      for (const BddRef g : operands) acc = mgr.bdd_or(acc, g);
      break;
    case GateType::Xor: case GateType::Xnor:
      for (const BddRef g : operands) acc = mgr.bdd_xor(acc, g);
      break;
  }
  const bool inverted =
      t == GateType::Nand || t == GateType::Nor || t == GateType::Xnor;
  return inverted ? mgr.bdd_not(acc) : acc;
}

std::vector<BddRef> node_bdds(BddManager& mgr, const Network& net) {
  std::vector<BddRef> f = leaf_bdds(mgr, net);
  std::vector<BddRef> ops;
  for (const NodeId n : net.topo_order()) {
    f[n] = node_bdd(mgr, net, n, f, ops);
    // Pin each node function: later gates (and any auto-reordering the
    // caller enabled) must not reclaim it from under the vector.
    mgr.ref(f[n]);
  }
  return f;
}

std::vector<BddRef> output_bdds(BddManager& mgr, const Network& net) {
  const auto all = node_bdds(mgr, net);
  std::vector<BddRef> out;
  out.reserve(net.po_count());
  for (std::size_t i = 0; i < net.po_count(); ++i)
    out.push_back(mgr.ref(all[net.po(i)]));
  // Keep only the outputs pinned; internal node functions may be collected
  // once nothing downstream reaches them.
  for (const BddRef g : all) mgr.deref(g);
  return out;
}

EquivResult check_equivalence(const Network& a, const Network& b,
                              uint64_t sim_seed, ResourceGovernor* governor) {
  if (a.pi_count() != b.pi_count())
    return {false, "PI count differs"};
  if (a.po_count() != b.po_count())
    return {false, "PO count differs"};

  // Cheap random-simulation miter first, on the cached-value engine (one
  // good pass per side; PO reads come out of the cache).
  const auto patterns = random_patterns(a.pi_count(), 256, sim_seed);
  const SimState sa(a, patterns);
  const SimState sb(b, patterns);
  for (std::size_t i = 0; i < a.po_count(); ++i) {
    if (!(sa.value(a.po(i)) == sb.value(b.po(i)))) {
      std::ostringstream msg;
      msg << "random simulation mismatch on output " << i << " (" << a.po_name(i)
          << ")";
      return {false, msg.str()};
    }
  }

  // Structure next: both networks hashed into one miter. A PO pair whose
  // heads are the same node is proved; nothing else is concluded from it.
  const Network miter = strash_miter(a, b);
  const std::size_t n = a.po_count();
  EquivResult result{true, {}};
  for (std::size_t i = 0; i < n; ++i)
    if (miter.po(i) == miter.po(n + i)) ++result.proved_by_structure;
  if (result.proved_by_structure == n) return result;

  // BDDs for the rest, pair by pair over the miter: only the open pairs'
  // cones are built, logic both sides share is built once, and the first
  // mismatch stops the check.
  BddManager mgr(static_cast<int>(a.pi_count()));
  mgr.set_governor(governor);
  // Wide interfaces are where the identity order blows up; let the kernel
  // sift. build_cone pins every node it builds, so reordering is safe here.
  if (a.pi_count() > 16) mgr.set_auto_reorder(true);
  std::vector<BddRef> f = leaf_bdds(mgr, miter);
  std::vector<bool> built(miter.node_count(), false);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId ha = miter.po(i), hb = miter.po(n + i);
    if (ha == hb) continue;
    build_cone(mgr, miter, ha, f, built);
    build_cone(mgr, miter, hb, f, built);
    if (BddManager::is_invalid(f[ha]) || BddManager::is_invalid(f[hb]))
      return undecided(result);
    if (f[ha] != f[hb]) {
      const BddRef diff = mgr.bdd_xor(f[ha], f[hb]);
      if (BddManager::is_invalid(diff)) return undecided(result);
      const BitVec witness = mgr.pick_sat(diff);
      std::ostringstream msg;
      msg << "BDD mismatch on output " << i << " (" << a.po_name(i)
          << "), witness " << witness.to_string();
      result.equivalent = false;
      result.reason = msg.str();
      return result;
    }
    ++result.proved_by_bdd;
  }
  return result;
}

EquivResult check_against_tts(const Network& net,
                              const std::vector<TruthTable>& tts) {
  if (net.po_count() != tts.size()) return {false, "PO count differs"};
  BddManager mgr(static_cast<int>(net.pi_count()));
  const auto fn = output_bdds(mgr, net);
  for (std::size_t i = 0; i < tts.size(); ++i) {
    const BddRef spec = mgr.from_cover(Cover::from_truth_table(tts[i]));
    if (fn[i] != spec) {
      std::ostringstream msg;
      msg << "mismatch vs truth table on output " << i;
      return {false, msg.str()};
    }
  }
  return {true, {}};
}

} // namespace rmsyn
