// Gate-level Boolean network: the object every synthesis pass in rmsyn
// produces and transforms. Nodes are n-ary gates over node ids; ids 0 and 1
// are the constant-0/constant-1 nodes of every network.
//
// Storage is structure-of-arrays (the layout mockturtle-style flat networks
// and ABC's NewBdd use to reach 100k+ nodes): one packed word per node
// (type + flags + maintained structural level), fanins in a single flat
// arena addressed by offset+count, and maintained fanout lists threaded as
// doubly-linked edge chains through that arena. There is no per-node heap
// allocation on the hot path; `fanins(n)` hands out a FaninSpan view into
// the arena.
//
// Mutation contract (see DESIGN.md §11):
//  * add_pi/add_gate/add_po append; rewrite_gate edits a node in place and
//    keeps fanout lists and levels consistent; recycle() returns an
//    unreferenced node's id to a free list for add_gate to reuse.
//  * A FaninSpan is invalidated by ANY call that can grow or rewrite the
//    arena (add_gate, rewrite_gate, recycle, compact). Copy it (it converts
//    to std::vector) before mutating.
//  * compact() drops dead/garbage storage and remaps ids densely; PI and PO
//    order (and names) are preserved, and the old→new map is returned.
//
// The paper's cost metric is implemented in stats.hpp on top of this class:
// circuits are counted in 2-input AND/OR gates, with each 2-input XOR worth
// three AND/OR gates and inverters free (this reproduces the paper's t481
// arithmetic: 25 gates for the closed-form network, 50 "literals").
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace rmsyn {

enum class GateType : uint8_t {
  Const0,
  Const1,
  Pi,
  Buf,
  Not,
  And,
  Or,
  Xor,
  Xnor,
  Nand,
  Nor,
};

const char* gate_type_name(GateType t);

/// True for the gate types an n-ary simulation/cost model treats as parity.
inline bool is_xor_like(GateType t) { return t == GateType::Xor || t == GateType::Xnor; }

using NodeId = uint32_t;

/// One failed deep-consistency check (see Network::check_invariants):
/// which invariant broke, at which node, and a human-readable detail.
struct InvariantViolation {
  std::string invariant; ///< "fanout-chain", "ref-count", "po-ref", "level",
                         ///< "acyclic", "free-list", "arena-span", "pi-index"
  NodeId node;           ///< offending node (kNoNode for global checks)
  std::string detail;

  std::string to_string() const;
};

/// Process-wide paranoid mode (--paranoid): when enabled, every structural
/// transform re-runs the deep invariant checker on its result and throws
/// RmsynError(InvariantViolation) on the first inconsistency, turning
/// silent SoA corruption into an immediate, named failure.
void set_paranoid_checks(bool on);
bool paranoid_checks_enabled();

/// Non-owning view of one node's fanins inside the flat arena. Converts
/// implicitly to std::vector<NodeId> so pre-SoA call sites that copied the
/// fanin vector keep compiling; invalidated by any mutating Network call.
class FaninSpan {
public:
  using value_type = NodeId;
  using const_iterator = const NodeId*;

  FaninSpan() = default;
  FaninSpan(const NodeId* data, std::size_t count) : data_(data), count_(count) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + count_; }
  const NodeId* data() const { return data_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  NodeId operator[](std::size_t i) const { return data_[i]; }
  NodeId front() const { return data_[0]; }
  NodeId back() const { return data_[count_ - 1]; }

  std::vector<NodeId> to_vector() const { return {begin(), end()}; }
  operator std::vector<NodeId>() const { return to_vector(); }

private:
  const NodeId* data_ = nullptr;
  std::size_t count_ = 0;
};

inline bool operator==(const FaninSpan& a, const FaninSpan& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}
inline bool operator==(const FaninSpan& a, const std::vector<NodeId>& b) {
  return a == FaninSpan(b.data(), b.size());
}
inline bool operator==(const std::vector<NodeId>& a, const FaninSpan& b) {
  return b == a;
}
inline bool operator!=(const FaninSpan& a, const std::vector<NodeId>& b) {
  return !(a == b);
}
inline bool operator!=(const std::vector<NodeId>& a, const FaninSpan& b) {
  return !(b == a);
}

class Network {
public:
  static constexpr NodeId kConst0 = 0;
  static constexpr NodeId kConst1 = 1;
  /// Sentinel for "no node / no edge" in the SoA link fields and in the
  /// remap vector compact() returns for dropped nodes.
  static constexpr NodeId kNoNode = 0xFFFFFFFFu;

  Network();

  /// Pre-sizes the SoA columns (and the fanin arena to `edges` entries) so
  /// a generator of known size never reallocates mid-build.
  void reserve(std::size_t nodes, std::size_t edges);

  /// Adds a primary input and returns its node id. PI order is the pattern
  /// order used by the simulator and the pattern generators. PIs never
  /// reuse recycled ids: pi order stays append order.
  NodeId add_pi(std::string name = {});

  /// Adds a gate whose fanins must already exist. And/Or/Xor/Xnor/Nand/Nor
  /// accept >= 1 fanins; Not/Buf exactly one. Reuses a recycled id when one
  /// is available.
  NodeId add_gate(GateType type, const std::vector<NodeId>& fanins);

  NodeId add_not(NodeId a) { return add_gate(GateType::Not, {a}); }
  NodeId add_and(NodeId a, NodeId b) { return add_gate(GateType::And, {a, b}); }
  NodeId add_or(NodeId a, NodeId b) { return add_gate(GateType::Or, {a, b}); }
  NodeId add_xor(NodeId a, NodeId b) { return add_gate(GateType::Xor, {a, b}); }
  NodeId constant(bool v) const { return v ? kConst1 : kConst0; }

  /// Registers a primary output pointing at `node`.
  void add_po(NodeId node, std::string name = {});

  /// Number of node slots, including recycled-but-not-compacted ones.
  std::size_t node_count() const { return packed_.size(); }
  std::size_t pi_count() const { return pis_.size(); }
  std::size_t po_count() const { return pos_.size(); }
  /// Fanin-arena entries ever allocated (live blocks + garbage from
  /// rewrites); compact() drops the garbage.
  std::size_t edge_capacity() const { return arena_.size(); }

  GateType type(NodeId n) const {
    return static_cast<GateType>(packed_[n] & kTypeMask);
  }
  /// True for a node returned to the free list by recycle().
  bool is_dead(NodeId n) const { return (packed_[n] & kDeadFlag) != 0; }
  /// Maintained structural level: 0 for PIs/constants, 1 + max fanin level
  /// for gates (every gate counts one level regardless of type/arity —
  /// stats.hpp derives the paper's 2-input depth metric separately).
  uint32_t level(NodeId n) const { return packed_[n] >> kLevelShift; }

  FaninSpan fanins(NodeId n) const {
    return {arena_.data() + fanin_off_[n], fanin_cnt_[n]};
  }
  std::size_t fanin_count(NodeId n) const { return fanin_cnt_[n]; }
  NodeId fanin(NodeId n, std::size_t k) const { return arena_[fanin_off_[n] + k]; }

  /// Node names are stored sparsely: in practice only PIs and the two
  /// constants carry one. Unnamed nodes return the empty string.
  const std::string& name(NodeId n) const;
  void set_name(NodeId n, std::string name);

  const std::vector<NodeId>& pis() const { return pis_; }
  const std::vector<NodeId>& pos() const { return pos_; }
  const std::string& po_name(std::size_t i) const { return po_names_[i]; }
  NodeId po(std::size_t i) const { return pos_[i]; }

  /// Index of a PI node in pi order; requires type(n)==Pi. O(1).
  std::size_t pi_index(NodeId n) const;

  /// Redirects primary output i to a different node (PO ref counts follow).
  void retarget_po(std::size_t i, NodeId node);

  /// In-place gate rewrite (used by redundancy removal): replaces the
  /// type/fanins of an existing node, relinking fanout lists and repairing
  /// levels through the fanout cone. The new fanins must keep the network
  /// acyclic; callers are responsible for acyclicity.
  void rewrite_gate(NodeId n, GateType type, const std::vector<NodeId>& fanins);

  /// Returns an unreferenced gate (ref_count and po_ref_count both 0) to
  /// the free list; its id may be handed out again by add_gate. PIs and
  /// constants are never recycled.
  void recycle(NodeId n);

  // ---- maintained fanout structure ----

  /// Number of fanin-edge references to n from non-recycled nodes
  /// (duplicate fanins count twice). POs are tracked separately in
  /// po_ref_count(). Unlike fanout_counts(), nodes outside the PO cone
  /// still contribute here.
  uint32_t ref_count(NodeId n) const { return ref_count_[n]; }
  /// Number of primary outputs currently pointing at n.
  uint32_t po_ref_count(NodeId n) const { return po_refs_[n]; }

  /// Iterates the maintained fanout list of a node, yielding the owning
  /// (reading) node of each fanin edge; a node with a duplicate fanin
  /// appears once per edge. Order is maintenance order, not id order.
  class FanoutRange {
  public:
    class iterator {
    public:
      iterator(const Network* net, uint32_t edge) : net_(net), edge_(edge) {}
      NodeId operator*() const { return net_->edge_owner_[edge_]; }
      iterator& operator++() {
        edge_ = net_->next_out_[edge_];
        return *this;
      }
      bool operator!=(const iterator& o) const { return edge_ != o.edge_; }
      bool operator==(const iterator& o) const { return edge_ == o.edge_; }

    private:
      const Network* net_;
      uint32_t edge_;
    };
    FanoutRange(const Network* net, uint32_t head) : net_(net), head_(head) {}
    iterator begin() const { return {net_, head_}; }
    iterator end() const { return {net_, kNoNode}; }

  private:
    const Network* net_;
    uint32_t head_;
  };
  FanoutRange fanouts(NodeId n) const { return {this, first_out_[n]}; }

  /// Copies the maintained fanout list into a vector (maintenance order).
  std::vector<NodeId> fanout_list(NodeId n) const;

  // ---- whole-network queries ----

  /// Nodes in topological order (fanins before fanouts), restricted to the
  /// cone of the POs plus all PIs/constants.
  std::vector<NodeId> topo_order() const;

  /// Nodes reachable from the POs (the "live" cone), including PIs.
  std::vector<bool> live_mask() const;

  /// Number of fanout references of each node counting only live readers
  /// (POs count once each) — the historical pre-SoA semantics, now served
  /// from the maintained fanout lists instead of a full fanin re-scan.
  std::vector<uint32_t> fanout_counts() const;

  /// Remaps ids densely: constants, then PIs in pi order, then the live
  /// internal cone in topological order. Dead nodes, recycled slots and
  /// arena garbage are dropped; PI/PO order and all names are preserved.
  /// Returns the old-id → new-id map (kNoNode for dropped nodes).
  std::vector<NodeId> compact();

  /// Evaluates the network on one input assignment (bit i = PI i).
  std::vector<bool> eval(const std::vector<bool>& pi_values) const;

  // ---- deep invariant checker (DESIGN.md §12) ----

  /// Re-derives every piece of maintained structure from scratch and
  /// reports where the SoA columns disagree:
  ///   * fanout-chain: doubly-linked chain consistency (prev/next mirror
  ///     each other, every edge's target is the chain owner, every live
  ///     fanin edge appears in exactly one chain) and chain length ==
  ///     ref_count;
  ///   * ref-count / po-ref: maintained counters vs a full recount;
  ///   * level: packed level == 1 + max fanin level (0 for PI/const);
  ///   * acyclic: no fanin cycle through live nodes;
  ///   * free-list: free list and dead flags agree (every dead node listed
  ///     exactly once, no live node listed, dead nodes fully unlinked);
  ///   * arena-span: every fanin block lies inside the arena and its edges
  ///     are owned by the node; live fanins point at live nodes;
  ///   * pi-index: pi_pos_ column and pis_ vector are inverse bijections.
  /// Stops after `max_violations` findings (corruption tends to cascade).
  std::vector<InvariantViolation> check_invariants(
      std::size_t max_violations = 16) const;

  /// Throws RmsynError(ErrorCode::InvariantViolation) naming `where`, the
  /// broken invariant and the node id when check_invariants() finds
  /// anything. No-op on a consistent network.
  void assert_invariants(const char* where) const;

private:
  /// Test-only backdoor: the invariant-checker tests corrupt individual
  /// SoA columns through this accessor to prove every check fires. Not
  /// part of the public API.
  friend struct NetworkTestAccess;
  static constexpr uint32_t kTypeMask = 0xF;
  static constexpr uint32_t kDeadFlag = 0x10;
  static constexpr uint32_t kLevelShift = 8;
  static constexpr uint32_t kMaxLevel = 0xFFFFFF;

  void set_type(NodeId n, GateType t) {
    packed_[n] = (packed_[n] & ~kTypeMask) | static_cast<uint32_t>(t);
  }
  void set_level(NodeId n, uint32_t lv) {
    assert(lv <= kMaxLevel);
    packed_[n] = (packed_[n] & ((1u << kLevelShift) - 1)) | (lv << kLevelShift);
  }
  void set_dead(NodeId n, bool dead) {
    if (dead) packed_[n] |= kDeadFlag;
    else packed_[n] &= ~kDeadFlag;
  }

  NodeId new_node(GateType t, std::string name, bool reuse_free);
  void link_edge(uint32_t e);
  void unlink_edge(uint32_t e);
  uint32_t compute_level(NodeId n) const;
  void repair_levels_from(NodeId n);
  void validate_gate(GateType type, const std::vector<NodeId>& fanins) const;

  // ---- per-node columns (SoA) ----
  std::vector<uint32_t> packed_;    ///< type | dead flag | level<<8
  std::vector<uint32_t> fanin_off_; ///< first arena index of the fanin block
  std::vector<uint32_t> fanin_cnt_; ///< fanin count
  std::vector<uint32_t> first_out_; ///< head edge of the fanout list
  std::vector<uint32_t> ref_count_; ///< maintained fanin-edge references
  std::vector<uint32_t> po_refs_;   ///< maintained PO references
  std::vector<uint32_t> pi_pos_;    ///< PI ordinal (kNoNode for non-PIs)
  std::unordered_map<NodeId, std::string> names_; ///< non-empty names only

  // ---- per-edge columns (flat fanin arena) ----
  std::vector<NodeId> arena_;       ///< fanin targets
  std::vector<NodeId> edge_owner_;  ///< node whose fanin this edge is
  std::vector<uint32_t> next_out_;  ///< next edge in target's fanout list
  std::vector<uint32_t> prev_out_;  ///< previous edge in that list

  std::vector<NodeId> pis_;
  std::vector<NodeId> pos_;
  std::vector<std::string> po_names_;
  std::vector<NodeId> free_; ///< recycled ids available to add_gate
};

/// Paranoid-mode hook every structural transform calls on its result: runs
/// the deep checker (and throws) only when --paranoid armed it, so the
/// disabled cost is one relaxed atomic load per transform.
void maybe_check_invariants(const Network& net, const char* where);

} // namespace rmsyn
