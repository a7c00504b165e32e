#include "core/resub.hpp"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "util/errors.hpp"
#include "equiv/equiv.hpp"
#include "network/simulate.hpp"
#include "network/transform.hpp"

namespace rmsyn {

namespace {

/// The exact BDD sweep is skipped when the network's BDDs exceed this many
/// nodes; structural hashing alone is then used.
constexpr std::size_t kBddNodeLimit = 2'000'000;
/// Patterns and seed of the simulation-signature screen.
constexpr std::size_t kPrefilterPatterns = 1024;
constexpr uint64_t kPrefilterSeed = 0x5EEDBA5E;

/// True when some pair of live nodes shares a simulation signature or a
/// complemented one — i.e. the exact sweep MIGHT merge something. No
/// collision ⇒ all node functions are pairwise distinct up to complement ⇒
/// the sweep is the identity rebuild.
bool signatures_collide(const Network& hashed, const ResubOptions& opt) {
  SimState sim(hashed, random_patterns(hashed.pi_count(), kPrefilterPatterns,
                                       kPrefilterSeed));
  bool collision = false;
  std::unordered_set<BitVec, BitVecHash> seen;
  // Mirrors the rep-map seeding of the exact sweep: constants, then PIs.
  seen.insert(sim.value(Network::kConst0));
  seen.insert(sim.value(Network::kConst1));
  for (const NodeId pi : hashed.pis()) seen.insert(sim.value(pi));
  BitVec flipped;
  for (const NodeId n : hashed.topo_order()) {
    const GateType t = hashed.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    const BitVec& v = sim.value(n);
    if (seen.count(v) != 0) {
      collision = true;
      break;
    }
    flipped = v;
    flipped.flip_all();
    if (seen.count(flipped) != 0) {
      collision = true;
      break;
    }
    seen.insert(v);
  }
  if (opt.sim_stats != nullptr) opt.sim_stats->accumulate(sim.take_stats());
  return collision;
}

/// The exact sweep's rebuild: the live cone of `hashed` copied into a new
/// network in topo order, then strashed. `merged(out, n)` returns the node
/// of `out` that already computes n's function (or kNoNode to copy n);
/// `added(n, m)` reports each PI and copied gate n and its copy m.
template <class Merged, class Added>
Network rebuild(const Network& hashed, Merged merged, Added added) {
  Network out;
  std::vector<NodeId> map(hashed.node_count(), Network::kConst0);
  map[Network::kConst1] = Network::kConst1;
  for (std::size_t i = 0; i < hashed.pi_count(); ++i) {
    const NodeId pi = hashed.pis()[i];
    map[pi] = out.add_pi(hashed.name(pi));
    added(pi, map[pi]);
  }
  const auto live = hashed.live_mask();
  for (const NodeId n : hashed.topo_order()) {
    if (!live[n]) continue;
    const GateType t = hashed.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    if (const NodeId m = merged(out, n); m != Network::kNoNode) {
      map[n] = m;
      continue;
    }
    std::vector<NodeId> fi;
    fi.reserve(hashed.fanins(n).size());
    for (const NodeId g : hashed.fanins(n)) fi.push_back(map[g]);
    map[n] = out.add_gate(t, std::move(fi));
    added(n, map[n]);
  }
  for (std::size_t i = 0; i < hashed.po_count(); ++i)
    out.add_po(map[hashed.po(i)], hashed.po_name(i));
  return strash(out);
}

} // namespace

Network resub_merge(const Network& net, const ResubOptions& opt) {
  Network hashed = strash(net);

  // Signature screen before any BDD is built. Skipped under an exhausted
  // governor so a budget-starved call keeps its pre-screen behavior.
  if (opt.sim_prefilter && hashed.pi_count() > 0 &&
      (opt.governor == nullptr || !opt.governor->exhausted()) &&
      !signatures_collide(hashed, opt))
    return rebuild(
        hashed, [](Network&, NodeId) { return Network::kNoNode; },
        [](NodeId, NodeId) {});

  try {
    BddManager mgr(static_cast<int>(hashed.pi_count()));
    mgr.set_governor(opt.governor);
    const std::vector<BddRef> f = node_bdds(mgr, hashed);
    if (mgr.node_count() > kBddNodeLimit) return hashed;
    // A governed sweep that ran out of budget leaves invalid refs; merging
    // on them would conflate distinct functions, so keep the strashed net.
    for (const BddRef r : f)
      if (BddManager::is_invalid(r)) return hashed;

    // Representative per function; complements map through an inverter.
    std::unordered_map<BddRef, NodeId> rep;
    rep[mgr.bdd_false()] = Network::kConst0;
    rep[mgr.bdd_true()] = Network::kConst1;
    const auto merged = [&](Network& out, NodeId n) {
      if (const auto it = rep.find(f[n]); it != rep.end()) return it->second;
      if (const auto it = rep.find(mgr.bdd_not(f[n])); it != rep.end()) {
        const NodeId inv = out.add_not(it->second);
        rep.emplace(f[n], inv);
        return inv;
      }
      return Network::kNoNode;
    };
    return rebuild(hashed, merged,
                   [&](NodeId n, NodeId m) { rep.emplace(f[n], m); });
  } catch (const RmsynError&) {
    throw; // injected faults / invariant violations must not be swallowed
  } catch (const std::runtime_error&) {
    // BDD node limit inside the manager: fall back to structural hashing.
    return hashed;
  }
}

} // namespace rmsyn
