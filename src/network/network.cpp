#include "network/network.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/errors.hpp"
#include "util/faultplan.hpp"

namespace rmsyn {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::Const0: return "const0";
    case GateType::Const1: return "const1";
    case GateType::Pi: return "pi";
    case GateType::Buf: return "buf";
    case GateType::Not: return "not";
    case GateType::And: return "and";
    case GateType::Or: return "or";
    case GateType::Xor: return "xor";
    case GateType::Xnor: return "xnor";
    case GateType::Nand: return "nand";
    case GateType::Nor: return "nor";
  }
  return "?";
}

Network::Network() {
  new_node(GateType::Const0, "const0", /*reuse_free=*/false);
  new_node(GateType::Const1, "const1", /*reuse_free=*/false);
}

void Network::reserve(std::size_t nodes, std::size_t edges) {
  packed_.reserve(nodes);
  fanin_off_.reserve(nodes);
  fanin_cnt_.reserve(nodes);
  first_out_.reserve(nodes);
  ref_count_.reserve(nodes);
  po_refs_.reserve(nodes);
  pi_pos_.reserve(nodes);
  arena_.reserve(edges);
  edge_owner_.reserve(edges);
  next_out_.reserve(edges);
  prev_out_.reserve(edges);
}

NodeId Network::new_node(GateType t, std::string name, bool reuse_free) {
  fault_count_node(); // FaultPlan arena hook: may throw RmsynError
  if (reuse_free && !free_.empty()) {
    const NodeId id = free_.back();
    free_.pop_back();
    packed_[id] = static_cast<uint32_t>(t); // clears dead flag and level
    fanin_off_[id] = 0;
    fanin_cnt_[id] = 0;
    first_out_[id] = kNoNode;
    ref_count_[id] = 0;
    po_refs_[id] = 0;
    pi_pos_[id] = kNoNode;
    set_name(id, std::move(name));
    return id;
  }
  const NodeId id = static_cast<NodeId>(packed_.size());
  packed_.push_back(static_cast<uint32_t>(t));
  fanin_off_.push_back(0);
  fanin_cnt_.push_back(0);
  first_out_.push_back(kNoNode);
  ref_count_.push_back(0);
  po_refs_.push_back(0);
  pi_pos_.push_back(kNoNode);
  set_name(id, std::move(name));
  return id;
}

const std::string& Network::name(NodeId n) const {
  static const std::string kUnnamed;
  const auto it = names_.find(n);
  return it == names_.end() ? kUnnamed : it->second;
}

void Network::set_name(NodeId n, std::string name) {
  if (name.empty()) names_.erase(n);
  else names_[n] = std::move(name);
}

void Network::link_edge(uint32_t e) {
  const NodeId t = arena_[e];
  next_out_[e] = first_out_[t];
  prev_out_[e] = kNoNode;
  if (first_out_[t] != kNoNode) prev_out_[first_out_[t]] = e;
  first_out_[t] = e;
  ++ref_count_[t];
}

void Network::unlink_edge(uint32_t e) {
  const NodeId t = arena_[e];
  const uint32_t prev = prev_out_[e];
  const uint32_t next = next_out_[e];
  if (prev != kNoNode) next_out_[prev] = next;
  else first_out_[t] = next;
  if (next != kNoNode) prev_out_[next] = prev;
  assert(ref_count_[t] > 0);
  --ref_count_[t];
}

NodeId Network::add_pi(std::string name) {
  if (name.empty()) name = "x" + std::to_string(pis_.size());
  const NodeId id = new_node(GateType::Pi, std::move(name), /*reuse_free=*/false);
  pi_pos_[id] = static_cast<uint32_t>(pis_.size());
  pis_.push_back(id);
  return id;
}

void Network::validate_gate(GateType type,
                            const std::vector<NodeId>& fanins) const {
  if (type == GateType::Not || type == GateType::Buf) {
    if (fanins.size() != 1)
      throw std::invalid_argument("Network: NOT/BUF take one fanin");
  } else if (type == GateType::Pi || type == GateType::Const0 ||
             type == GateType::Const1) {
    throw std::invalid_argument("Network: use add_pi/constant");
  } else if (fanins.empty()) {
    throw std::invalid_argument("Network: gate needs fanins");
  }
  for (const NodeId f : fanins)
    if (f >= packed_.size() || is_dead(f))
      throw std::invalid_argument("Network: fanin does not exist");
}

NodeId Network::add_gate(GateType type, const std::vector<NodeId>& fanins) {
  validate_gate(type, fanins);
  const NodeId id = new_node(type, {}, /*reuse_free=*/true);
  const uint32_t off = static_cast<uint32_t>(arena_.size());
  fanin_off_[id] = off;
  fanin_cnt_[id] = static_cast<uint32_t>(fanins.size());
  for (std::size_t k = 0; k < fanins.size(); ++k) {
    arena_.push_back(fanins[k]);
    edge_owner_.push_back(id);
    next_out_.push_back(kNoNode);
    prev_out_.push_back(kNoNode);
    link_edge(off + static_cast<uint32_t>(k));
  }
  set_level(id, compute_level(id));
  return id;
}

void Network::add_po(NodeId node, std::string name) {
  assert(node < packed_.size() && !is_dead(node));
  if (name.empty()) name = "z" + std::to_string(pos_.size());
  pos_.push_back(node);
  po_names_.push_back(std::move(name));
  ++po_refs_[node];
}

void Network::retarget_po(std::size_t i, NodeId node) {
  assert(node < packed_.size() && !is_dead(node));
  --po_refs_[pos_[i]];
  pos_[i] = node;
  ++po_refs_[node];
}

std::size_t Network::pi_index(NodeId n) const {
  if (n >= packed_.size() || type(n) != GateType::Pi)
    throw std::invalid_argument("Network::pi_index: not a PI");
  return pi_pos_[n];
}

uint32_t Network::compute_level(NodeId n) const {
  uint32_t lv = 0;
  const uint32_t off = fanin_off_[n];
  for (uint32_t k = 0; k < fanin_cnt_[n]; ++k)
    lv = std::max(lv, level(arena_[off + k]) + 1);
  return lv;
}

void Network::repair_levels_from(NodeId n) {
  std::vector<NodeId> wl{n};
  while (!wl.empty()) {
    const NodeId m = wl.back();
    wl.pop_back();
    const uint32_t lv = compute_level(m);
    if (lv == level(m)) continue;
    set_level(m, lv);
    for (uint32_t e = first_out_[m]; e != kNoNode; e = next_out_[e])
      wl.push_back(edge_owner_[e]);
  }
}

void Network::rewrite_gate(NodeId n, GateType type,
                           const std::vector<NodeId>& fanins) {
  assert(n >= 2 && n < packed_.size());
  assert(this->type(n) != GateType::Pi);
  validate_gate(type, fanins);

  const uint32_t old_off = fanin_off_[n];
  const uint32_t old_cnt = fanin_cnt_[n];
  for (uint32_t k = 0; k < old_cnt; ++k) unlink_edge(old_off + k);

  uint32_t off;
  if (fanins.size() <= old_cnt) {
    // Shrinking (or equal) rewrite reuses the block in place; the stale
    // tail entries are unlinked and never traversed again.
    off = old_off;
    for (std::size_t k = 0; k < fanins.size(); ++k)
      arena_[off + k] = fanins[k];
  } else {
    // Growing rewrite allocates a fresh block at the arena tail; the old
    // block becomes garbage until compact().
    off = static_cast<uint32_t>(arena_.size());
    for (std::size_t k = 0; k < fanins.size(); ++k) {
      arena_.push_back(fanins[k]);
      edge_owner_.push_back(n);
      next_out_.push_back(kNoNode);
      prev_out_.push_back(kNoNode);
    }
  }
  fanin_off_[n] = off;
  fanin_cnt_[n] = static_cast<uint32_t>(fanins.size());
  for (uint32_t k = 0; k < fanin_cnt_[n]; ++k) link_edge(off + k);

  set_type(n, type);
  repair_levels_from(n);
}

void Network::recycle(NodeId n) {
  assert(n >= 2 && n < packed_.size());
  if (type(n) == GateType::Pi)
    throw std::invalid_argument("Network::recycle: cannot recycle a PI");
  if (ref_count_[n] != 0 || po_refs_[n] != 0)
    throw std::invalid_argument("Network::recycle: node still referenced");
  if (is_dead(n)) return;
  const uint32_t off = fanin_off_[n];
  for (uint32_t k = 0; k < fanin_cnt_[n]; ++k) unlink_edge(off + k);
  fanin_cnt_[n] = 0;
  set_dead(n, true);
  free_.push_back(n);
}

std::vector<NodeId> Network::fanout_list(NodeId n) const {
  std::vector<NodeId> out;
  for (uint32_t e = first_out_[n]; e != kNoNode; e = next_out_[e])
    out.push_back(edge_owner_[e]);
  return out;
}

std::vector<NodeId> Network::topo_order() const {
  std::vector<uint8_t> state(packed_.size(), 0); // 0 new, 1 open, 2 done
  std::vector<NodeId> order;
  order.reserve(packed_.size());
  // Iterative DFS to avoid stack overflow on deep chains. The visit order
  // (constants, PIs, then POs, fanins first-to-last) is load-bearing: it
  // keeps the emitted order byte-identical to the pre-SoA implementation,
  // which downstream passes' golden results depend on.
  std::vector<std::pair<NodeId, std::size_t>> stack;
  const auto visit = [&](NodeId root) {
    if (state[root] == 2) return;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [n, idx] = stack.back();
      if (state[n] == 2) { stack.pop_back(); continue; }
      state[n] = 1;
      if (idx < fanin_cnt_[n]) {
        const NodeId f = arena_[fanin_off_[n] + idx++];
        if (state[f] == 0) stack.emplace_back(f, 0);
        else if (state[f] == 1)
          throw std::logic_error("Network: cycle detected");
      } else {
        state[n] = 2;
        order.push_back(n);
        stack.pop_back();
      }
    }
  };
  visit(kConst0);
  visit(kConst1);
  for (const NodeId pi : pis_) visit(pi);
  for (const NodeId po : pos_) visit(po);
  return order;
}

std::vector<bool> Network::live_mask() const {
  std::vector<bool> live(packed_.size(), false);
  std::vector<NodeId> stack(pos_.begin(), pos_.end());
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (live[n]) continue;
    live[n] = true;
    const uint32_t off = fanin_off_[n];
    for (uint32_t k = 0; k < fanin_cnt_[n]; ++k) stack.push_back(arena_[off + k]);
  }
  for (const NodeId pi : pis_) live[pi] = true;
  live[kConst0] = live[kConst1] = true;
  return live;
}

std::vector<uint32_t> Network::fanout_counts() const {
  // Served from the maintained fanout lists; only live (PO-reachable)
  // readers count, exactly as the historical full-scan implementation.
  std::vector<uint32_t> counts(packed_.size(), 0);
  const auto live = live_mask();
  for (NodeId n = 0; n < packed_.size(); ++n) {
    for (uint32_t e = first_out_[n]; e != kNoNode; e = next_out_[e])
      if (live[edge_owner_[e]]) ++counts[n];
  }
  for (const NodeId po : pos_) ++counts[po];
  return counts;
}

std::vector<NodeId> Network::compact() {
  RMSYN_SPAN("network-compact");
  const auto live = live_mask();
  const auto order = topo_order();

  Network out;
  out.reserve(packed_.size(), arena_.size());
  std::vector<NodeId> remap(packed_.size(), kNoNode);
  remap[kConst0] = kConst0;
  remap[kConst1] = kConst1;
  out.set_name(kConst0, name(kConst0));
  out.set_name(kConst1, name(kConst1));
  for (const NodeId pi : pis_) remap[pi] = out.add_pi(name(pi));
  std::vector<NodeId> fi;
  for (const NodeId n : order) {
    if (!live[n]) continue;
    const GateType t = type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    fi.clear();
    const uint32_t off = fanin_off_[n];
    for (uint32_t k = 0; k < fanin_cnt_[n]; ++k)
      fi.push_back(remap[arena_[off + k]]);
    remap[n] = out.add_gate(t, fi);
    if (const auto it = names_.find(n); it != names_.end())
      out.names_[remap[n]] = it->second;
  }
  for (std::size_t i = 0; i < pos_.size(); ++i)
    out.add_po(remap[pos_[i]], po_names_[i]);
  *this = std::move(out);
  return remap;
}

// --- deep invariant checker --------------------------------------------------

namespace {
std::atomic<bool> g_paranoid{false};
} // namespace

void set_paranoid_checks(bool on) {
  g_paranoid.store(on, std::memory_order_relaxed);
}

bool paranoid_checks_enabled() {
  return g_paranoid.load(std::memory_order_relaxed);
}

void maybe_check_invariants(const Network& net, const char* where) {
  if (paranoid_checks_enabled()) net.assert_invariants(where);
}

std::string InvariantViolation::to_string() const {
  std::string s = invariant;
  if (node != Network::kNoNode) s += " at node " + std::to_string(node);
  if (!detail.empty()) s += ": " + detail;
  return s;
}

std::vector<InvariantViolation> Network::check_invariants(
    std::size_t max_violations) const {
  std::vector<InvariantViolation> out;
  const std::size_t n_nodes = packed_.size();
  const std::size_t n_edges = arena_.size();
  const auto report = [&](const char* invariant, NodeId node,
                          std::string detail) {
    if (out.size() < max_violations)
      out.push_back({invariant, node, std::move(detail)});
  };
  const auto full = [&] { return out.size() >= max_violations; };

  // Constant slots are part of every network's identity.
  if (n_nodes < 2 || type(kConst0) != GateType::Const0 ||
      type(kConst1) != GateType::Const1)
    report("arena-span", kNoNode, "constant slots 0/1 missing or retyped");

  // arena-span: every fanin block inside the arena, owned by its node,
  // pointing at existing live nodes; dead nodes fully cleared.
  for (NodeId n = 0; n < n_nodes && !full(); ++n) {
    if (is_dead(n)) {
      if (fanin_cnt_[n] != 0)
        report("free-list", n, "dead node keeps " +
                                   std::to_string(fanin_cnt_[n]) + " fanins");
      continue;
    }
    const uint64_t off = fanin_off_[n];
    const uint64_t cnt = fanin_cnt_[n];
    if (off + cnt > n_edges) {
      report("arena-span", n,
             "fanin block [" + std::to_string(off) + ", " +
                 std::to_string(off + cnt) + ") exceeds arena size " +
                 std::to_string(n_edges));
      continue;
    }
    const GateType t = type(n);
    const bool leaf = t == GateType::Pi || t == GateType::Const0 ||
                      t == GateType::Const1;
    if (leaf && cnt != 0)
      report("arena-span", n, "PI/constant with fanins");
    if ((t == GateType::Not || t == GateType::Buf) && cnt != 1)
      report("arena-span", n, "NOT/BUF arity " + std::to_string(cnt));
    if (!leaf && t != GateType::Not && t != GateType::Buf && cnt == 0)
      report("arena-span", n, "gate with no fanins");
    for (uint64_t k = 0; k < cnt && !full(); ++k) {
      const uint32_t e = static_cast<uint32_t>(off + k);
      if (edge_owner_[e] != n)
        report("arena-span", n,
               "edge " + std::to_string(e) + " owned by node " +
                   std::to_string(edge_owner_[e]));
      const NodeId f = arena_[e];
      if (f >= n_nodes)
        report("arena-span", n, "fanin " + std::to_string(f) + " out of range");
      else if (is_dead(f))
        report("arena-span", n, "fanin " + std::to_string(f) + " is dead");
    }
  }

  // fanout-chain: walk each maintained chain, checking link symmetry,
  // target identity, liveness of member edges, and length == ref_count.
  std::vector<uint8_t> edge_seen(n_edges, 0);
  for (NodeId n = 0; n < n_nodes && !full(); ++n) {
    uint64_t len = 0;
    uint32_t prev = kNoNode;
    uint32_t e = first_out_[n];
    bool broken = false;
    while (e != kNoNode) {
      if (e >= n_edges) {
        report("fanout-chain", n, "edge " + std::to_string(e) + " out of range");
        broken = true;
        break;
      }
      if (edge_seen[e]) {
        report("fanout-chain", n,
               "edge " + std::to_string(e) + " linked twice (chain cycle "
               "or shared edge)");
        broken = true;
        break;
      }
      edge_seen[e] = 1;
      if (arena_[e] != n) {
        report("fanout-chain", n,
               "chain edge " + std::to_string(e) + " targets node " +
                   std::to_string(arena_[e]));
        broken = true;
        break;
      }
      if (prev_out_[e] != prev) {
        report("fanout-chain", n,
               "edge " + std::to_string(e) + " prev link " +
                   (prev_out_[e] == kNoNode ? std::string("none")
                                            : std::to_string(prev_out_[e])) +
                   " != expected " +
                   (prev == kNoNode ? std::string("none")
                                    : std::to_string(prev)));
        broken = true;
        break;
      }
      const NodeId owner = edge_owner_[e];
      if (owner >= n_nodes || is_dead(owner) ||
          e < fanin_off_[owner] ||
          e >= static_cast<uint64_t>(fanin_off_[owner]) + fanin_cnt_[owner]) {
        report("fanout-chain", n,
               "chain edge " + std::to_string(e) +
                   " is stale (outside its owner's live fanin block)");
        broken = true;
        break;
      }
      ++len;
      prev = e;
      e = next_out_[e];
    }
    if (!broken && len != ref_count_[n])
      report("ref-count", n,
             "fanout chain has " + std::to_string(len) +
                 " edges, ref_count says " + std::to_string(ref_count_[n]));
  }

  // ref-count / po-ref: maintained counters vs a full recount.
  std::vector<uint32_t> ref(n_nodes, 0), po_ref(n_nodes, 0);
  for (NodeId n = 0; n < n_nodes; ++n) {
    if (is_dead(n)) continue;
    const uint64_t off = fanin_off_[n];
    const uint64_t cnt = fanin_cnt_[n];
    if (off + cnt > n_edges) continue; // already reported above
    for (uint64_t k = 0; k < cnt; ++k)
      if (arena_[off + k] < n_nodes) ++ref[arena_[off + k]];
  }
  for (const NodeId po : pos_)
    if (po < n_nodes) ++po_ref[po];
    else report("po-ref", po, "primary output out of range");
  for (NodeId n = 0; n < n_nodes && !full(); ++n) {
    if (ref_count_[n] != ref[n])
      report("ref-count", n,
             "maintained " + std::to_string(ref_count_[n]) + ", recomputed " +
                 std::to_string(ref[n]));
    if (po_refs_[n] != po_ref[n])
      report("po-ref", n,
             "maintained " + std::to_string(po_refs_[n]) + ", recomputed " +
                 std::to_string(po_ref[n]));
    if (po_ref[n] != 0 && is_dead(n))
      report("po-ref", n, "primary output points at a dead node");
  }

  // level: packed level vs recomputation (0 for PIs/constants).
  for (NodeId n = 0; n < n_nodes && !full(); ++n) {
    if (is_dead(n)) continue;
    if (static_cast<uint64_t>(fanin_off_[n]) + fanin_cnt_[n] > n_edges)
      continue;
    bool fanins_ok = true;
    for (uint64_t k = 0; k < fanin_cnt_[n]; ++k)
      fanins_ok &= arena_[fanin_off_[n] + k] < n_nodes;
    if (!fanins_ok) continue;
    const uint32_t lv = compute_level(n);
    if (level(n) != lv)
      report("level", n,
             "maintained " + std::to_string(level(n)) + ", recomputed " +
                 std::to_string(lv));
  }

  // acyclic: DFS over live fanins (a cycle would also wedge topo_order()).
  {
    std::vector<uint8_t> state(n_nodes, 0); // 0 new, 1 open, 2 done
    std::vector<std::pair<NodeId, uint64_t>> stack;
    for (NodeId root = 0; root < n_nodes && !full(); ++root) {
      if (is_dead(root) || state[root] != 0) continue;
      stack.emplace_back(root, 0);
      while (!stack.empty() && !full()) {
        auto& [n, idx] = stack.back();
        state[n] = 1;
        const uint64_t off = fanin_off_[n];
        const uint64_t cnt =
            off + fanin_cnt_[n] <= n_edges ? fanin_cnt_[n] : 0;
        if (idx < cnt) {
          const NodeId f = arena_[off + idx++];
          if (f >= n_nodes || is_dead(f)) continue; // reported above
          if (state[f] == 1)
            report("acyclic", n,
                   "fanin cycle through node " + std::to_string(f));
          else if (state[f] == 0)
            stack.emplace_back(f, 0);
        } else {
          state[n] = 2;
          stack.pop_back();
        }
      }
      stack.clear();
    }
  }

  // free-list: the free list and the dead flags must agree exactly.
  {
    std::vector<uint8_t> listed(n_nodes, 0);
    for (const NodeId f : free_) {
      if (f >= n_nodes) {
        report("free-list", f, "free-list id out of range");
        continue;
      }
      if (listed[f])
        report("free-list", f, "listed twice in the free list");
      listed[f] = 1;
      if (!is_dead(f))
        report("free-list", f, "free-list node is not flagged dead");
      if (f < 2 || type(f) == GateType::Pi)
        report("free-list", f, "PI/constant on the free list");
      if (ref_count_[f] != 0 || po_refs_[f] != 0)
        report("free-list", f, "dead node still referenced");
      if (first_out_[f] != kNoNode)
        report("free-list", f, "dead node keeps a fanout chain");
    }
    for (NodeId n = 0; n < n_nodes && !full(); ++n)
      if (is_dead(n) && !listed[n])
        report("free-list", n, "dead node missing from the free list");
  }

  // pi-index: pis_ and the pi_pos_ column are inverse bijections.
  for (std::size_t i = 0; i < pis_.size() && !full(); ++i) {
    const NodeId pi = pis_[i];
    if (pi >= n_nodes) {
      report("pi-index", pi, "PI id out of range");
      continue;
    }
    if (type(pi) != GateType::Pi)
      report("pi-index", pi, "pis_[" + std::to_string(i) + "] is not a PI");
    if (is_dead(pi)) report("pi-index", pi, "PI flagged dead");
    if (pi_pos_[pi] != i)
      report("pi-index", pi,
             "pi_pos says " + std::to_string(pi_pos_[pi]) + ", pi order says " +
                 std::to_string(i));
  }
  for (NodeId n = 0; n < n_nodes && !full(); ++n) {
    if (is_dead(n)) continue;
    if (type(n) == GateType::Pi) {
      if (pi_pos_[n] >= pis_.size() || pis_[pi_pos_[n]] != n)
        report("pi-index", n, "PI not listed at its pi_pos");
    } else if (pi_pos_[n] != kNoNode) {
      report("pi-index", n, "non-PI carries a pi_pos");
    }
  }

  return out;
}

void Network::assert_invariants(const char* where) const {
  const auto violations = check_invariants();
  if (violations.empty()) return;
  std::string msg = std::string(where) + ": network invariant violated: " +
                    violations.front().to_string();
  if (violations.size() > 1)
    msg += " (+" + std::to_string(violations.size() - 1) + " more)";
  throw RmsynError(ErrorCode::InvariantViolation, msg);
}

std::vector<bool> Network::eval(const std::vector<bool>& pi_values) const {
  assert(pi_values.size() == pis_.size());
  std::vector<bool> value(packed_.size(), false);
  value[kConst1] = true;
  for (std::size_t i = 0; i < pis_.size(); ++i) value[pis_[i]] = pi_values[i];
  for (const NodeId n : topo_order()) {
    const FaninSpan fi = fanins(n);
    switch (type(n)) {
      case GateType::Const0: case GateType::Const1: case GateType::Pi:
        break;
      case GateType::Buf: value[n] = value[fi[0]]; break;
      case GateType::Not: value[n] = !value[fi[0]]; break;
      case GateType::And: {
        bool v = true;
        for (const NodeId f : fi) v = v && value[f];
        value[n] = v;
        break;
      }
      case GateType::Nand: {
        bool v = true;
        for (const NodeId f : fi) v = v && value[f];
        value[n] = !v;
        break;
      }
      case GateType::Or: {
        bool v = false;
        for (const NodeId f : fi) v = v || value[f];
        value[n] = v;
        break;
      }
      case GateType::Nor: {
        bool v = false;
        for (const NodeId f : fi) v = v || value[f];
        value[n] = !v;
        break;
      }
      case GateType::Xor: {
        bool v = false;
        for (const NodeId f : fi) v = v != value[f];
        value[n] = v;
        break;
      }
      case GateType::Xnor: {
        bool v = false;
        for (const NodeId f : fi) v = v != value[f];
        value[n] = !v;
        break;
      }
    }
  }
  std::vector<bool> out(pos_.size());
  for (std::size_t i = 0; i < pos_.size(); ++i) out[i] = value[pos_[i]];
  return out;
}

} // namespace rmsyn
