#include "baseline/sop_network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "baseline/factor.hpp"
#include "sop/minimize.hpp"

namespace rmsyn {

SopNetwork::SopNetwork(int num_pis) : num_pis_(num_pis) {}

SopNetwork SopNetwork::from_network(const Network& net) {
  SopNetwork sn(static_cast<int>(net.pi_count()));
  // var id of each gate-network node once assigned; -1 = not yet.
  std::vector<int> var_of(net.node_count(), -1);
  std::vector<bool> negated(net.node_count(), false);
  for (std::size_t i = 0; i < net.pi_count(); ++i)
    var_of[net.pis()[i]] = static_cast<int>(i);

  const auto live = net.live_mask();
  for (const NodeId n : net.topo_order()) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Pi) continue;
    if (t == GateType::Const0 || t == GateType::Const1) continue;

    const auto lit_of = [&](NodeId f) -> std::pair<int, bool> {
      // (var, complemented?)
      if (f == Network::kConst0 || f == Network::kConst1)
        return {-static_cast<int>(f) - 1, false}; // encode constants below
      return {var_of[f], negated[f]};
    };

    if (t == GateType::Buf || t == GateType::Not) {
      const NodeId f = net.fanins(n)[0];
      if (f == Network::kConst0 || f == Network::kConst1) {
        // Constant node: materialize as a constant cover.
        const bool value = (f == Network::kConst1) != (t == GateType::Not);
        var_of[n] = sn.append_node(Cover::constant(sn.num_vars(), value));
        negated[n] = false;
      } else {
        var_of[n] = var_of[f];
        negated[n] = negated[f] != (t == GateType::Not);
      }
      continue;
    }

    // Build the gate's local cover over the global variable space.
    const int width = sn.num_vars();
    Cover cov(width);
    const auto add_lit = [&](Cube& cube, NodeId f, bool phase) -> bool {
      // Returns false when the cube is killed by a constant.
      if (f == Network::kConst0 || f == Network::kConst1) {
        const bool value = (f == Network::kConst1) != !phase;
        return value; // constant literal: true keeps cube, false kills it
      }
      const auto [v, neg] = lit_of(f);
      const bool pos = phase != neg;
      if (pos) cube.add_pos(v); else cube.add_neg(v);
      return true;
    };

    const auto& fi = net.fanins(n);
    bool complemented_out = false;
    switch (t) {
      case GateType::And: case GateType::Nand: {
        Cube cube(width);
        bool alive = true;
        for (const NodeId f : fi) alive = alive && add_lit(cube, f, true);
        if (alive) cov.add(std::move(cube));
        complemented_out = t == GateType::Nand;
        break;
      }
      case GateType::Or: case GateType::Nor: {
        for (const NodeId f : fi) {
          Cube cube(width);
          if (add_lit(cube, f, true)) cov.add(std::move(cube));
        }
        complemented_out = t == GateType::Nor;
        break;
      }
      case GateType::Xor: case GateType::Xnor: {
        if (fi.size() != 2)
          throw std::invalid_argument(
              "SopNetwork::from_network: decompose XOR to 2 inputs first");
        Cube c1(width), c2(width);
        bool a1 = add_lit(c1, fi[0], true) && add_lit(c1, fi[1], false);
        bool a2 = add_lit(c2, fi[0], false) && add_lit(c2, fi[1], true);
        if (a1) cov.add(std::move(c1));
        if (a2) cov.add(std::move(c2));
        complemented_out = t == GateType::Xnor;
        break;
      }
      default:
        throw std::logic_error("SopNetwork::from_network: bad gate");
    }
    if (complemented_out) cov = single_cube_containment(cov.complement());
    var_of[n] = sn.append_node(std::move(cov));
    negated[n] = false;
  }

  for (std::size_t i = 0; i < net.po_count(); ++i) {
    const NodeId po = net.po(i);
    int v;
    if (po == Network::kConst0 || po == Network::kConst1) {
      v = sn.append_node(Cover::constant(sn.num_vars(), po == Network::kConst1));
    } else if (negated[po] || net.type(po) == GateType::Pi) {
      // POs must reference a node variable in true phase; wrap.
      Cover wrap(sn.num_vars());
      Cube cube(sn.num_vars());
      if (negated[po]) cube.add_neg(var_of[po]); else cube.add_pos(var_of[po]);
      wrap.add(std::move(cube));
      v = sn.append_node(std::move(wrap));
    } else {
      v = var_of[po];
    }
    sn.add_po(v, net.po_name(i));
  }
  // Nothing above mixes covers, so they are widened once, at the end.
  sn.widen_all();
  return sn;
}

int SopNetwork::add_node(Cover cover) {
  const int var = append_node(std::move(cover));
  widen_all();
  return var;
}

int SopNetwork::append_node(Cover cover) {
  const int var = num_vars();
  if (cover.nvars() < var + 1) cover.resize_vars(var + 1);
  covers_.emplace_back();
  fanins_.emplace_back();
  store_cover(covers_.size() - 1, std::move(cover));
  dead_.push_back(false);
  return var;
}

void SopNetwork::widen_all() {
  for (auto& c : covers_)
    if (c.nvars() < num_vars()) c.resize_vars(num_vars());
}

const Cover& SopNetwork::cover_of(int var) const {
  assert(!is_pi(var));
  return covers_[static_cast<std::size_t>(var - num_pis_)];
}

void SopNetwork::set_cover(int var, Cover cover) {
  assert(!is_pi(var));
  if (cover.nvars() < num_vars()) cover.resize_vars(num_vars());
  store_cover(static_cast<std::size_t>(var - num_pis_), std::move(cover));
}

void SopNetwork::store_cover(std::size_t k, Cover cover) {
  const BitVec sup = cover.support();
  fanins_[k].clear();
  for (std::size_t v = sup.first_set(); v != BitVec::npos; v = sup.next_set(v + 1))
    fanins_[k].push_back(static_cast<int>(v));
  covers_[k] = std::move(cover);
}

void SopNetwork::add_po(int var, std::string name) {
  pos_.push_back(var);
  po_names_.push_back(std::move(name));
}

std::vector<int> SopNetwork::fanout_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(num_vars()), 0);
  const auto nodes = topo_nodes();
  for (const int n : nodes)
    for (const int f : fanins(n)) ++counts[static_cast<std::size_t>(f)];
  for (const int po : pos_) ++counts[static_cast<std::size_t>(po)];
  return counts;
}

std::vector<int> SopNetwork::topo_nodes() const {
  // Iterative post-order DFS from the POs, fanins in ascending order.
  std::vector<uint8_t> state(static_cast<std::size_t>(num_vars()), 0);
  std::vector<int> order;
  std::vector<std::pair<int, std::size_t>> stack; // (node, next fanin)
  const auto enter = [&](int v) {
    if (is_pi(v) || state[static_cast<std::size_t>(v)] == 2) return;
    if (state[static_cast<std::size_t>(v)] == 1)
      throw std::logic_error("SopNetwork: cycle");
    state[static_cast<std::size_t>(v)] = 1;
    stack.emplace_back(v, 0);
  };
  for (const int po : pos_) {
    enter(po);
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto& fi = fanins(v);
      if (next < fi.size()) {
        enter(fi[next++]);
        continue;
      }
      state[static_cast<std::size_t>(v)] = 2;
      order.push_back(v);
      stack.pop_back();
    }
  }
  return order;
}

int SopNetwork::literal_count() const {
  int lits = 0;
  for (const int n : topo_nodes()) lits += cover_of(n).literal_count();
  return lits;
}

int SopNetwork::collapse_growth(int var) const {
  assert(!is_pi(var));
  const Cover& g = cover_of(var);
  const auto gbar_opt = g.complement_bounded(200'000);
  if (!gbar_opt) return std::numeric_limits<int>::max();
  const Cover gbar = single_cube_containment(*gbar_opt);
  int growth = -g.literal_count();
  for (std::size_t k = 0; k < covers_.size(); ++k) {
    if (!reads(k, var)) continue;
    const Cover& f = covers_[k];
    const Cover pos_part = f.cofactor(var, true);
    const Cover neg_part = f.cofactor(var, false);
    const Cover merged =
        single_cube_containment((pos_part & g) | (neg_part & gbar));
    growth += merged.literal_count() - f.literal_count();
  }
  return growth;
}

bool SopNetwork::collapse_node(int var) {
  assert(!is_pi(var));
  if (std::find(pos_.begin(), pos_.end(), var) != pos_.end()) return false;
  const Cover g = cover_of(var);
  const auto gbar_opt = g.complement_bounded(1'000'000);
  if (!gbar_opt) return false;
  const Cover gbar = single_cube_containment(*gbar_opt);
  for (std::size_t k = 0; k < covers_.size(); ++k) {
    if (!reads(k, var)) continue;
    const Cover& f = covers_[k];
    Cover pos_part = f.cofactor(var, true);
    Cover neg_part = f.cofactor(var, false);
    // f = v·f_v + v̄·f_v̄ with v := g.
    Cover merged = (pos_part & g) | (neg_part & gbar);
    // The cofactor parts overlap on cubes without v; (A|A) duplicates are
    // cleaned by containment.
    store_cover(k, single_cube_containment(merged));
  }
  // Mark as dead by emptying the cover (it is no longer referenced).
  store_cover(static_cast<std::size_t>(var - num_pis_), Cover(num_vars()));
  dead_[static_cast<std::size_t>(var - num_pis_)] = true;
  return true;
}

bool SopNetwork::flatten(std::size_t max_cubes) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const int n : topo_nodes()) {
      bool is_po = false;
      for (const int po : pos_)
        if (po == n) { is_po = true; break; }
      if (is_po) continue;
      if (!collapse_node(n)) return false;
      changed = true;
      // Abort when a cover blows past the cap.
      for (const auto& c : covers_)
        if (c.size() > max_cubes) return false;
      break; // topo list is stale after a collapse
    }
  }
  // Fully flat iff every PO cover depends on PIs only.
  for (const int po : pos_)
    for (const int f : fanins(po))
      if (!is_pi(f)) return false;
  return true;
}

Network SopNetwork::to_network() const {
  Network net;
  std::vector<NodeId> var_nodes(static_cast<std::size_t>(num_vars()),
                                Network::kConst0);
  for (int i = 0; i < num_pis_; ++i)
    var_nodes[static_cast<std::size_t>(i)] = net.add_pi();
  for (const int n : topo_nodes()) {
    var_nodes[static_cast<std::size_t>(n)] =
        build_factored(net, cover_of(n), var_nodes);
  }
  for (std::size_t i = 0; i < pos_.size(); ++i)
    net.add_po(var_nodes[static_cast<std::size_t>(pos_[i])], po_names_[i]);
  return net;
}

} // namespace rmsyn
