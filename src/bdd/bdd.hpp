// A production-grade ROBDD kernel (Bryant/Brace-Rudell-Bryant style),
// standing in for the SIS 1.2 BDD package the paper used.
//
// Kernel features:
//  * Complement edges. A BddRef is (node index << 1) | complement bit; only
//    the 1-terminal exists (kTrue = regular edge to it, kFalse = the
//    complemented edge). Canonical form: the then-edge of every node is
//    regular, so equal functions intern to equal refs and bdd_not is O(1).
//  * A bounded computed table: open-addressed, power-of-two sized, lossy
//    (direct-mapped replacement), shared across and/xor/ite/cofactor/
//    density/sat_count. Replaces the old unbounded unordered_map memo.
//  * Reference-counted garbage collection. Consumers pin long-lived
//    functions with ref()/deref(); gc() mark-sweeps from the pinned roots,
//    reclaims dead nodes into a free list, and unlinks them from the
//    unique subtables. Edge reference counts are maintained internally so
//    reordering can reclaim nodes eagerly mid-sift.
//  * Dynamic variable reordering by sifting (Rudell), with a reorder()
//    entry point and an optional auto-trigger on node-count growth.
//    Reordering rewrites nodes in place, so BddRefs remain valid across
//    reorder() and keep denoting the same function.
//  * BddStats observability: unique/computed-table traffic, GC runs,
//    reorder swaps, live/peak node counts.
//
// The FPRM/OFDD machinery in src/fdd is layered directly on top of this
// package: the paper's OFDD is isomorphic to the ROBDD of the Reed-Muller
// coefficient function (see fdd/fprm.hpp).
//
// Threading: a BddManager is single-threaded — one thread uses it at a
// time. Parallel batches (src/sched) give each row its own manager; no
// function moves between managers.
//
// GC protocol. Operations never collect on their own; gc() frees exactly
// the nodes unreachable from ref()'d roots (variable projection nodes are
// permanently pinned). Any ref held across a gc() call must be ref()'d
// first. Auto-reordering never frees pinned or operand nodes, but a sift
// can reclaim unpinned dead nodes — flows that enable it must pin what
// they hold (node_bdds/output_bdds do this for their results).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sop/cover.hpp"
#include "util/governor.hpp"
#include "util/stat_fields.hpp"

namespace rmsyn {

/// A BDD edge: (node index << 1) | complement bit. kTrue and kFalse are the
/// two phases of the single terminal node (index 0).
using BddRef = uint32_t;

/// Kernel observability counters, surfaced through flow reports and the
/// bench harnesses.
struct BddStats {
  uint64_t unique_lookups = 0;  ///< unique-table probes in mk()
  uint64_t unique_hits = 0;     ///< probes answered by an existing node
  uint64_t cache_lookups = 0;   ///< computed-table probes
  uint64_t cache_hits = 0;      ///< computed-table hits
  uint64_t cache_inserts = 0;   ///< entries written (lossy overwrite)
  uint64_t gc_runs = 0;
  uint64_t nodes_freed = 0;     ///< by gc() and by eager reclaim in sifting
  uint64_t reorder_runs = 0;
  uint64_t reorder_swaps = 0;   ///< adjacent-level swaps performed
  std::size_t live_nodes = 0;   ///< nonterminal nodes currently interned
  std::size_t peak_live_nodes = 0;

  double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
  /// Accumulates another manager's counters (peak/live take the max/sum
  /// convention useful for multi-manager flows).
  void accumulate(const BddStats& o) { stat_fields::accumulate(*this, o); }

  /// Field table (util/stat_fields.hpp); exported as the dd.* metrics.
  template <class V>
  static void fields(V&& v) {
    v("unique_lookups", &BddStats::unique_lookups, StatKind::Counter);
    v("unique_hits", &BddStats::unique_hits, StatKind::Counter);
    v("cache_lookups", &BddStats::cache_lookups, StatKind::Counter);
    v("cache_hits", &BddStats::cache_hits, StatKind::Counter);
    v("cache_inserts", &BddStats::cache_inserts, StatKind::Counter);
    v("gc_runs", &BddStats::gc_runs, StatKind::Counter);
    v("nodes_freed", &BddStats::nodes_freed, StatKind::Counter);
    v("reorder_runs", &BddStats::reorder_runs, StatKind::Counter);
    v("reorder_swaps", &BddStats::reorder_swaps, StatKind::Counter);
    v("live_nodes", &BddStats::live_nodes, StatKind::Internal);
    v("peak_live_nodes", &BddStats::peak_live_nodes, StatKind::Peak);
  }
};

class BddManager {
public:
  static constexpr BddRef kTrue = 0;  ///< regular edge to the terminal
  static constexpr BddRef kFalse = 1; ///< complemented edge to the terminal
  /// Sentinel returned by governed operations when the attached
  /// ResourceGovernor trips mid-recursion (the CUDD NULL-return protocol:
  /// no exception ever crosses the kernel boundary). Both phases of the
  /// sentinel are invalid so bdd_not() cannot launder it back into a real
  /// ref; no legal ref collides (node_index would exceed kMaxIndex).
  static constexpr BddRef kInvalid = 0xFFFFFFFFu;

  /// True for either phase of the kInvalid sentinel. Callers must test
  /// results of governed ops with this before structural use.
  static bool is_invalid(BddRef f) { return (f | 1u) == kInvalid; }

  /// Creates a manager over `nvars` variables with the identity order
  /// (variable i starts at level i). The computed table holds
  /// 2^cache_bits entries and never grows (lossy replacement).
  explicit BddManager(int nvars, int cache_bits = 16);

  int nvars() const { return nvars_; }
  /// Number of live (interned, nonterminal) nodes.
  std::size_t node_count() const { return live_; }

  BddRef bdd_false() const { return kFalse; }
  BddRef bdd_true() const { return kTrue; }
  BddRef var(int v);
  BddRef nvar(int v) { return var(v) ^ 1u; }
  /// The literal of variable v with the given phase.
  BddRef literal(int v, bool positive) { return positive ? var(v) : nvar(v); }

  BddRef bdd_and(BddRef a, BddRef b);
  BddRef bdd_or(BddRef a, BddRef b);
  BddRef bdd_xor(BddRef a, BddRef b);
  /// O(1): complement edges make negation a bit flip.
  BddRef bdd_not(BddRef a) const { return a ^ 1u; }
  /// if-then-else, built from the two-operand kernels (shares their cache).
  BddRef bdd_ite(BddRef f, BddRef g, BddRef h);

  /// Shannon cofactor with variable v fixed to `value`.
  BddRef cofactor(BddRef f, int v, bool value);

  /// True iff f depends on variable v.
  bool depends_on(BddRef f, int v);
  /// Mask of variables f depends on.
  BitVec support(BddRef f);

  /// Number of satisfying assignments over all nvars variables, as a double
  /// (exact up to 2^53).
  double sat_count(BddRef f);

  /// Fraction of assignments satisfying f (signal probability under
  /// independent uniform inputs); never overflows regardless of nvars.
  double density(BddRef f);

  /// Enumerates the satisfying assignments of f projected onto `vars`.
  /// Requires support(f) ⊆ vars; a variable of `vars` unconstrained along a
  /// BDD path is expanded into both values (the paper's 2^(n-k) cubes per
  /// OFDD path). `cb` receives a BitVec indexed like `vars`; returning false
  /// aborts. Returns false when `limit` assignments were produced before
  /// finishing. Enumeration descends in level order but assignment slots
  /// follow the order of `vars` as given.
  bool enumerate_sat(BddRef f, const std::vector<int>& vars, std::size_t limit,
                     const std::function<bool(const BitVec&)>& cb);

  /// One satisfying assignment (any), as a full nvars-wide assignment;
  /// valid only when f != false.
  BitVec pick_sat(BddRef f);

  /// Creates (or reuses) the node ITE(var, hi, lo). `var` must lie strictly
  /// above both children's levels; used by the Reed-Muller transform in
  /// src/fdd which constructs spectra level by level.
  BddRef mk_node(int var, BddRef lo, BddRef hi);

  /// Builds the BDD of an SOP cover.
  BddRef from_cover(const Cover& c);
  /// Builds the BDD of a single cube.
  BddRef from_cube(const Cube& c);

  /// Evaluates f under a full assignment.
  bool eval(BddRef f, const BitVec& assignment) const;

  /// Number of nodes in the subgraph rooted at f (excluding the terminal;
  /// the two phases of a node count once).
  std::size_t size(BddRef f) const;

  /// Graphviz rendering for debugging/documentation; complemented edges are
  /// drawn with a dot arrowhead.
  std::string to_dot(BddRef f, const std::string& name = "f") const;

  // --- structure accessors (complement-propagating) ---------------------
  /// Top variable of f; terminals report nvars() (below every level).
  int var_of(BddRef f) const { return nodes_[f >> 1].var; }
  /// Else-edge of f with f's complement bit pushed onto it, so that
  /// f == ITE(var_of(f), hi_of(f), lo_of(f)) always holds.
  BddRef lo_of(BddRef f) const { return nodes_[f >> 1].lo ^ (f & 1u); }
  /// Then-edge of f with f's complement bit pushed onto it.
  BddRef hi_of(BddRef f) const { return nodes_[f >> 1].hi ^ (f & 1u); }
  bool is_terminal(BddRef f) const { return f <= kFalse; }
  static bool is_complement(BddRef f) { return (f & 1u) != 0; }
  /// The positive phase of f (complement bit cleared).
  static BddRef regular(BddRef f) { return f & ~1u; }

  // --- variable order ---------------------------------------------------
  /// Level (0 = top) variable v currently sits at.
  int level_of(int v) const { return perm_[static_cast<std::size_t>(v)]; }
  /// Variable at level l.
  int var_at_level(int l) const { return order_[static_cast<std::size_t>(l)]; }
  /// Level of f's top node; terminals report nvars().
  int level_of_ref(BddRef f) const {
    return perm_[static_cast<std::size_t>(nodes_[f >> 1].var)];
  }

  // --- garbage collection ----------------------------------------------
  /// Pins f as a GC root (returns f for chaining). Pin anything held
  /// across gc()/reorder(); variable projection nodes are always pinned.
  BddRef ref(BddRef f);
  void deref(BddRef f);
  /// Mark-sweep from the pinned roots: reclaims dead nodes into the free
  /// list, unlinks them from the unique subtables, and flushes the
  /// computed table. Returns the number of nodes freed.
  std::size_t gc();

  // --- dynamic reordering -----------------------------------------------
  /// Sifts every variable to its locally best level (Rudell). Refs stay
  /// valid and keep their function; unpinned dead nodes may be reclaimed.
  /// Call gc() first for the most accurate sift decisions. Returns the
  /// live node count afterwards.
  std::size_t reorder();
  /// Enables the auto-trigger: public operations reorder when the live
  /// node count crosses an adaptive threshold. Flows enabling this must
  /// pin (ref) every BddRef they hold.
  void set_auto_reorder(bool on) { auto_reorder_ = on; }
  bool auto_reorder() const { return auto_reorder_; }

  /// RAII guard deferring auto-reordering, for algorithms that capture the
  /// variable order across multiple kernel calls (e.g. spectrum builders).
  class ReorderHold {
  public:
    explicit ReorderHold(BddManager& m) : m_(&m) { ++m_->hold_; }
    ~ReorderHold() { --m_->hold_; }
    ReorderHold(const ReorderHold&) = delete;
    ReorderHold& operator=(const ReorderHold&) = delete;

  private:
    BddManager* m_;
  };

  // --- resource governance ----------------------------------------------
  /// Attaches (or detaches, with nullptr) a cooperative resource governor.
  /// Governed recursive operations poll it and return kInvalid once it
  /// trips; mk() itself never fails on a trip (so sifting stays safe) but
  /// reports allocations and the live count so node limits and allocation
  /// faults surface at the next poll. Ungoverned managers behave exactly
  /// as before.
  void set_governor(ResourceGovernor* g) { gov_ = g; }
  ResourceGovernor* governor() const { return gov_; }

  // --- observability ----------------------------------------------------
  /// Counters; live_nodes/peak_live_nodes are filled in on access.
  BddStats stats() const;
  /// Debug invariant check: canonical then-edges, reduced nodes, level
  /// ordering, unique triples, consistent subtable membership.
  bool check_canonical() const;

private:
  struct Node {
    int32_t var;       // variable index; nvars_ for the terminal, -1 = free
    BddRef lo;         // else-edge (may be complemented)
    BddRef hi;         // then-edge (always regular)
    uint32_t next;     // unique-subtable chain (node index; 0 = end)
    uint32_t edge_ref; // parent-edge count (internal)
    uint32_t ext_ref;  // external pins (GC roots)
  };

  struct Subtable {
    std::vector<uint32_t> buckets; // node indices, 0 = empty
    std::size_t count = 0;
  };

  enum class Op : uint32_t { None = 0, And, Xor, Cof0, Cof1, Density };
  struct CacheEntry {
    BddRef a = 0, b = 0, c = 0;
    Op op = Op::None;
    uint64_t val = 0;
  };

  static constexpr uint32_t kMaxIndex = (1u << 28) - 1;
  static constexpr int32_t kFreeVar = -1;
  static constexpr std::size_t kAutoReorderMin = 4096;

  static uint32_t node_index(BddRef f) { return f >> 1; }
  static std::size_t hash2(uint64_t a, uint64_t b) {
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x7f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

  BddRef mk(int var, BddRef lo, BddRef hi);
  void rehash(Subtable& st);
  void unlink(uint32_t i);

  BddRef and_rec(BddRef a, BddRef b);
  BddRef xor_rec(BddRef a, BddRef b);
  BddRef cof_rec(BddRef f, int v, int lv, bool value);
  double density_rec(BddRef f_reg);

  bool cache_find(Op op, BddRef a, BddRef b, BddRef c, uint64_t* out);
  void cache_put(Op op, BddRef a, BddRef b, BddRef c, uint64_t val);
  void cache_clear();

  void inc_edge(BddRef e) {
    if (e > kFalse) ++nodes_[node_index(e)].edge_ref;
  }
  /// Decrements a parent-edge count; cascades an eager free when the node
  /// becomes dead (used only during sifting swaps).
  void dec_edge_reclaim(BddRef e);
  void free_node(uint32_t i);

  void maybe_reorder(BddRef a = kTrue, BddRef b = kTrue);
  void swap_levels(int l);
  void sift_one(int v);

  int nvars_;
  std::vector<Node> nodes_;
  std::vector<Subtable> tables_; // one unique subtable per variable
  std::vector<uint32_t> free_;   // reclaimed node indices
  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_;
  std::vector<BddRef> var_refs_;
  std::vector<int> perm_;  // var -> level (perm_[nvars_] = nvars_: terminal)
  std::vector<int> order_; // level -> var
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  bool auto_reorder_ = false;
  int hold_ = 0;
  std::size_t next_reorder_at_ = kAutoReorderMin;
  ResourceGovernor* gov_ = nullptr;
  mutable BddStats stats_;
};

} // namespace rmsyn
