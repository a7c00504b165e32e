#include "network/transform.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <vector>

namespace rmsyn {

namespace {

/// Helper that accumulates a simplified, hashed network. Gates are
/// normalized to {Not, And, Or, Xor} over already-simplified fanins.
class Builder {
public:
  /// Starts with one PI per PI of `pis_from`, named after it.
  explicit Builder(const Network& pis_from) {
    for (std::size_t i = 0; i < pis_from.pi_count(); ++i)
      out_.add_pi(pis_from.name(pis_from.pis()[i]));
  }

  /// Hashes every live gate of `src` into the network under construction,
  /// PI i of `src` standing for built PI i. Several sources may be added;
  /// their structurally equal gates become one node. Returns the dense
  /// source node -> built node map.
  std::vector<NodeId> add(const Network& src) {
    assert(src.pi_count() == out_.pi_count());
    std::vector<NodeId> map(src.node_count(), Network::kNoNode);
    map[Network::kConst0] = Network::kConst0;
    map[Network::kConst1] = Network::kConst1;
    for (std::size_t i = 0; i < src.pi_count(); ++i)
      map[src.pis()[i]] = out_.pis()[i];
    const auto live = src.live_mask();
    for (const NodeId n : src.topo_order()) {
      if (!live[n]) continue;
      const GateType t = src.type(n);
      if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
        continue;
      std::vector<NodeId> fi;
      fi.reserve(src.fanins(n).size());
      for (const NodeId f : src.fanins(n)) {
        assert(map[f] != Network::kNoNode);
        fi.push_back(map[f]);
      }
      map[n] = mk_gate(t, std::move(fi));
    }
    return map;
  }

  NodeId mk_not(NodeId a) {
    if (a == Network::kConst0) return Network::kConst1;
    if (a == Network::kConst1) return Network::kConst0;
    if (out_.type(a) == GateType::Not) return out_.fanins(a)[0];
    return hashed(GateType::Not, {a});
  }

  bool is_complement_pair(NodeId a, NodeId b) const {
    return (out_.type(a) == GateType::Not && out_.fanins(a)[0] == b) ||
           (out_.type(b) == GateType::Not && out_.fanins(b)[0] == a);
  }

  NodeId mk_andor(GateType type, std::vector<NodeId> fanins) {
    assert(type == GateType::And || type == GateType::Or);
    const NodeId dominating =
        type == GateType::And ? Network::kConst0 : Network::kConst1;
    const NodeId neutral =
        type == GateType::And ? Network::kConst1 : Network::kConst0;
    std::sort(fanins.begin(), fanins.end());
    fanins.erase(std::unique(fanins.begin(), fanins.end()), fanins.end());
    std::vector<NodeId> kept;
    for (const NodeId f : fanins) {
      if (f == dominating) return dominating;
      if (f == neutral) continue;
      kept.push_back(f);
    }
    for (std::size_t i = 0; i < kept.size(); ++i)
      for (std::size_t j = i + 1; j < kept.size(); ++j)
        if (is_complement_pair(kept[i], kept[j])) return dominating;
    if (kept.empty()) return neutral;
    if (kept.size() == 1) return kept[0];
    return hashed(type, std::move(kept));
  }

  NodeId mk_xor(std::vector<NodeId> fanins, bool complemented = false) {
    std::vector<NodeId> kept;
    for (const NodeId f : fanins) {
      if (f == Network::kConst0) continue;
      if (f == Network::kConst1) { complemented = !complemented; continue; }
      NodeId g = f;
      // Pull inverters out of XOR fanins: x̄ ⊕ y = (x ⊕ y)'.
      while (out_.type(g) == GateType::Not) {
        complemented = !complemented;
        g = out_.fanins(g)[0];
      }
      kept.push_back(g);
    }
    std::sort(kept.begin(), kept.end());
    // x ⊕ x = 0: drop equal pairs.
    std::vector<NodeId> dedup;
    for (std::size_t i = 0; i < kept.size();) {
      if (i + 1 < kept.size() && kept[i] == kept[i + 1]) {
        i += 2;
      } else {
        dedup.push_back(kept[i]);
        ++i;
      }
    }
    NodeId result;
    if (dedup.empty()) result = Network::kConst0;
    else if (dedup.size() == 1) result = dedup[0];
    else result = hashed(GateType::Xor, std::move(dedup));
    return complemented ? mk_not(result) : result;
  }

  NodeId mk_gate(GateType type, std::vector<NodeId> fanins) {
    switch (type) {
      case GateType::Buf: return fanins[0];
      case GateType::Not: return mk_not(fanins[0]);
      case GateType::And: return mk_andor(GateType::And, std::move(fanins));
      case GateType::Or: return mk_andor(GateType::Or, std::move(fanins));
      case GateType::Nand:
        return mk_not(mk_andor(GateType::And, std::move(fanins)));
      case GateType::Nor:
        return mk_not(mk_andor(GateType::Or, std::move(fanins)));
      case GateType::Xor: return mk_xor(std::move(fanins));
      case GateType::Xnor: return mk_xor(std::move(fanins), true);
      default:
        throw std::logic_error("Builder::mk_gate: bad type");
    }
  }

  Network take() { return std::move(out_); }
  Network& net() { return out_; }

private:
  NodeId hashed(GateType type, std::vector<NodeId> fanins) {
    const auto key = std::make_pair(type, fanins);
    if (const auto it = hash_.find(key); it != hash_.end()) return it->second;
    const NodeId id = out_.add_gate(type, fanins);
    hash_.emplace(std::move(key), id);
    return id;
  }

  Network out_;
  std::map<std::pair<GateType, std::vector<NodeId>>, NodeId> hash_;
};

} // namespace

Network strash(const Network& net) {
  Builder b(net);
  const auto map = b.add(net);
  for (std::size_t i = 0; i < net.po_count(); ++i)
    b.net().add_po(map[net.po(i)], net.po_name(i));
  Network out = sweep(b.take());
  maybe_check_invariants(out, "strash");
  return out;
}

Network strash_miter(const Network& a, const Network& b) {
  if (a.pi_count() != b.pi_count())
    throw std::invalid_argument("strash_miter: PI counts differ");
  Builder builder(a);
  const auto map_a = builder.add(a);
  const auto map_b = builder.add(b);
  for (std::size_t i = 0; i < a.po_count(); ++i)
    builder.net().add_po(map_a[a.po(i)], a.po_name(i));
  for (std::size_t i = 0; i < b.po_count(); ++i)
    builder.net().add_po(map_b[b.po(i)], b.po_name(i));
  Network out = builder.take();
  maybe_check_invariants(out, "strash_miter");
  return out;
}

namespace {

NodeId balanced_tree(Network& out, GateType type, std::vector<NodeId> leaves) {
  while (leaves.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((leaves.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2)
      next.push_back(out.add_gate(type, {leaves[i], leaves[i + 1]}));
    if (leaves.size() % 2 == 1) next.push_back(leaves.back());
    leaves.swap(next);
  }
  return leaves[0];
}

} // namespace

Network decompose2(const Network& net) {
  Network out;
  std::vector<NodeId> map(net.node_count(), Network::kConst0);
  map[Network::kConst1] = Network::kConst1;
  for (std::size_t i = 0; i < net.pi_count(); ++i)
    map[net.pis()[i]] = out.add_pi(net.name(net.pis()[i]));
  const auto live = net.live_mask();
  for (const NodeId n : net.topo_order()) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    std::vector<NodeId> fi;
    for (const NodeId f : net.fanins(n)) fi.push_back(map[f]);
    switch (t) {
      case GateType::Buf:
      case GateType::Not:
        map[n] = out.add_gate(t, {fi[0]});
        break;
      case GateType::And: case GateType::Or: case GateType::Xor:
        map[n] = balanced_tree(out, t, std::move(fi));
        break;
      case GateType::Nand:
        map[n] = out.add_not(balanced_tree(out, GateType::And, std::move(fi)));
        break;
      case GateType::Nor:
        map[n] = out.add_not(balanced_tree(out, GateType::Or, std::move(fi)));
        break;
      case GateType::Xnor:
        map[n] = out.add_not(balanced_tree(out, GateType::Xor, std::move(fi)));
        break;
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < net.po_count(); ++i)
    out.add_po(map[net.po(i)], net.po_name(i));
  maybe_check_invariants(out, "decompose2");
  return out;
}

Network expand_xor(const Network& net) {
  Network out;
  std::vector<NodeId> map(net.node_count(), Network::kConst0);
  map[Network::kConst1] = Network::kConst1;
  for (std::size_t i = 0; i < net.pi_count(); ++i)
    map[net.pis()[i]] = out.add_pi(net.name(net.pis()[i]));
  const auto live = net.live_mask();
  for (const NodeId n : net.topo_order()) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    std::vector<NodeId> fi;
    for (const NodeId f : net.fanins(n)) fi.push_back(map[f]);
    if (t == GateType::Xor || t == GateType::Xnor) {
      if (fi.size() != 2)
        throw std::invalid_argument("expand_xor: run decompose2 first");
      // a ⊕ b = (a + b) · (a·b)'.
      const NodeId sum = out.add_or(fi[0], fi[1]);
      const NodeId both = out.add_and(fi[0], fi[1]);
      const NodeId x = out.add_and(sum, out.add_not(both));
      map[n] = t == GateType::Xor ? x : out.add_not(x);
    } else {
      map[n] = out.add_gate(t, std::move(fi));
    }
  }
  for (std::size_t i = 0; i < net.po_count(); ++i)
    out.add_po(map[net.po(i)], net.po_name(i));
  maybe_check_invariants(out, "expand_xor");
  return out;
}

Network permute_pis(const Network& net, const std::vector<std::size_t>& perm) {
  assert(perm.size() == net.pi_count());
  Network out;
  std::vector<NodeId> map(net.node_count(), Network::kConst0);
  map[Network::kConst1] = Network::kConst1;
  for (std::size_t k = 0; k < perm.size(); ++k) {
    const NodeId old_pi = net.pis()[perm[k]];
    map[old_pi] = out.add_pi(net.name(old_pi));
  }
  for (const NodeId n : net.topo_order()) {
    const GateType t = net.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    std::vector<NodeId> fi;
    for (const NodeId f : net.fanins(n)) fi.push_back(map[f]);
    map[n] = out.add_gate(t, std::move(fi));
  }
  for (std::size_t i = 0; i < net.po_count(); ++i)
    out.add_po(map[net.po(i)], net.po_name(i));
  maybe_check_invariants(out, "permute_pis");
  return out;
}

std::vector<std::size_t> spectrum_friendly_pi_order(const Network& spec) {
  std::vector<uint32_t> reach(spec.pi_count(), 0);
  for (std::size_t j = 0; j < spec.po_count(); ++j) {
    // PIs in the cone of PO j.
    std::vector<bool> seen(spec.node_count(), false);
    std::vector<NodeId> stack{spec.po(j)};
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      if (seen[n]) continue;
      seen[n] = true;
      if (spec.type(n) == GateType::Pi) ++reach[spec.pi_index(n)];
      for (const NodeId f : spec.fanins(n)) stack.push_back(f);
    }
  }
  std::vector<std::size_t> order(spec.pi_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return reach[a] < reach[b];
  });
  return order;
}

Network sweep(const Network& net) {
  Network out;
  std::vector<NodeId> map(net.node_count(), Network::kConst0);
  map[Network::kConst1] = Network::kConst1;
  for (std::size_t i = 0; i < net.pi_count(); ++i)
    map[net.pis()[i]] = out.add_pi(net.name(net.pis()[i]));
  const auto live = net.live_mask();
  for (const NodeId n : net.topo_order()) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    std::vector<NodeId> fi;
    for (const NodeId f : net.fanins(n)) fi.push_back(map[f]);
    map[n] = out.add_gate(t, std::move(fi));
    if (!net.name(n).empty()) out.set_name(map[n], net.name(n));
  }
  for (std::size_t i = 0; i < net.po_count(); ++i)
    out.add_po(map[net.po(i)], net.po_name(i));
  maybe_check_invariants(out, "sweep");
  return out;
}

} // namespace rmsyn
