#include "bdd/bdd.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "util/faultplan.hpp"

namespace rmsyn {

BddManager::BddManager(int nvars, int cache_bits)
    : nvars_(nvars),
      cache_(std::size_t{1} << cache_bits),
      cache_mask_((std::size_t{1} << cache_bits) - 1) {
  nodes_.reserve(1024);
  // The single terminal lives at index 0, below every variable level; its
  // regular phase is kTrue and its complemented phase kFalse.
  nodes_.push_back(Node{nvars_, 0, 0, 0, 0, 1});
  tables_.resize(static_cast<std::size_t>(nvars_));
  for (auto& t : tables_) t.buckets.assign(4, 0);
  perm_.resize(static_cast<std::size_t>(nvars_) + 1);
  order_.resize(static_cast<std::size_t>(nvars_) + 1);
  std::iota(perm_.begin(), perm_.end(), 0);
  std::iota(order_.begin(), order_.end(), 0);
  var_refs_.resize(static_cast<std::size_t>(nvars_));
  for (int v = 0; v < nvars_; ++v) {
    const BddRef r = mk(v, kFalse, kTrue);
    nodes_[node_index(r)].ext_ref = 1; // projection nodes are permanent roots
    var_refs_[static_cast<std::size_t>(v)] = r;
  }
}

BddRef BddManager::var(int v) {
  assert(v >= 0 && v < nvars_);
  return var_refs_[static_cast<std::size_t>(v)];
}

// ---------------------------------------------------------------------------
// Unique table
// ---------------------------------------------------------------------------

BddRef BddManager::mk(int var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;
  // Canonical form: the then-edge is regular. A complemented then-edge is
  // absorbed by complementing the whole node.
  BddRef out_c = 0;
  if (hi & 1u) {
    lo ^= 1u;
    hi ^= 1u;
    out_c = 1u;
  }
  Subtable& st = tables_[static_cast<std::size_t>(var)];
  ++stats_.unique_lookups;
  const std::size_t b = hash2(lo, hi) & (st.buckets.size() - 1);
  for (uint32_t i = st.buckets[b]; i != 0; i = nodes_[i].next)
    if (nodes_[i].lo == lo && nodes_[i].hi == hi) {
      ++stats_.unique_hits;
      return (i << 1) | out_c;
    }
  uint32_t i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    if (nodes_.size() > kMaxIndex)
      throw std::runtime_error("BddManager: node limit exceeded");
    i = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[i] = Node{var, lo, hi, st.buckets[b], 0, 0};
  inc_edge(lo);
  inc_edge(hi);
  st.buckets[b] = i;
  ++st.count;
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  if (gov_ != nullptr) {
    // Report only: mk() must stay infallible so reordering can always
    // rewrite nodes in place. A node-limit/allocation-fault trip recorded
    // here unwinds the caller at its next poll.
    gov_->count_allocation();
    gov_->note_nodes(live_);
  }
  if (st.count > st.buckets.size()) rehash(st);
  return (i << 1) | out_c;
}

void BddManager::rehash(Subtable& st) {
  std::vector<uint32_t> old = std::move(st.buckets);
  st.buckets.assign(old.size() * 2, 0);
  for (const uint32_t head : old)
    for (uint32_t i = head; i != 0;) {
      const uint32_t nx = nodes_[i].next;
      const std::size_t b =
          hash2(nodes_[i].lo, nodes_[i].hi) & (st.buckets.size() - 1);
      nodes_[i].next = st.buckets[b];
      st.buckets[b] = i;
      i = nx;
    }
}

void BddManager::unlink(uint32_t i) {
  Subtable& st = tables_[static_cast<std::size_t>(nodes_[i].var)];
  const std::size_t b =
      hash2(nodes_[i].lo, nodes_[i].hi) & (st.buckets.size() - 1);
  uint32_t* p = &st.buckets[b];
  while (*p != i) p = &nodes_[*p].next;
  *p = nodes_[i].next;
  --st.count;
}

void BddManager::free_node(uint32_t i) {
  nodes_[i] = Node{kFreeVar, 0, 0, 0, 0, 0};
  free_.push_back(i);
  --live_;
  ++stats_.nodes_freed;
}

void BddManager::dec_edge_reclaim(BddRef e) {
  if (e <= kFalse) return;
  const uint32_t i = node_index(e);
  assert(nodes_[i].edge_ref > 0);
  if (--nodes_[i].edge_ref == 0 && nodes_[i].ext_ref == 0) {
    unlink(i);
    const BddRef lo = nodes_[i].lo;
    const BddRef hi = nodes_[i].hi;
    free_node(i);
    dec_edge_reclaim(lo);
    dec_edge_reclaim(hi);
  }
}

// ---------------------------------------------------------------------------
// Computed table
// ---------------------------------------------------------------------------

bool BddManager::cache_find(Op op, BddRef a, BddRef b, BddRef c,
                            uint64_t* out) {
  ++stats_.cache_lookups;
  // The fault plan's computed-table site: a governed manager always misses.
  if (gov_ != nullptr && fault_cache_overflow()) return false;
  const std::size_t idx =
      hash2((uint64_t{a} << 32) | b,
            (uint64_t{c} << 8) | static_cast<uint32_t>(op)) &
      cache_mask_;
  const CacheEntry& e = cache_[idx];
  if (e.op == op && e.a == a && e.b == b && e.c == c) {
    ++stats_.cache_hits;
    *out = e.val;
    return true;
  }
  return false;
}

void BddManager::cache_put(Op op, BddRef a, BddRef b, BddRef c, uint64_t val) {
  const std::size_t idx =
      hash2((uint64_t{a} << 32) | b,
            (uint64_t{c} << 8) | static_cast<uint32_t>(op)) &
      cache_mask_;
  cache_[idx] = CacheEntry{a, b, c, op, val};
  ++stats_.cache_inserts;
}

void BddManager::cache_clear() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
}

// ---------------------------------------------------------------------------
// Boolean operations
// ---------------------------------------------------------------------------

BddRef BddManager::and_rec(BddRef a, BddRef b) {
  if (is_invalid(a) || is_invalid(b)) return kInvalid;
  if (a == b) return a;
  if (a == (b ^ 1u)) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == kFalse || b == kFalse) return kFalse;
  if (gov_ != nullptr && !gov_->poll()) return kInvalid;
  if (a > b) std::swap(a, b);
  uint64_t hit;
  if (cache_find(Op::And, a, b, 0, &hit)) return static_cast<BddRef>(hit);
  const int la = level_of_ref(a);
  const int lb = level_of_ref(b);
  const int l = std::min(la, lb);
  const BddRef a0 = la == l ? lo_of(a) : a;
  const BddRef a1 = la == l ? hi_of(a) : a;
  const BddRef b0 = lb == l ? lo_of(b) : b;
  const BddRef b1 = lb == l ? hi_of(b) : b;
  const BddRef r0 = and_rec(a0, b0);
  if (is_invalid(r0)) return kInvalid;
  const BddRef r1 = and_rec(a1, b1);
  if (is_invalid(r1)) return kInvalid;
  const BddRef r = mk(order_[static_cast<std::size_t>(l)], r0, r1);
  cache_put(Op::And, a, b, 0, r);
  return r;
}

BddRef BddManager::xor_rec(BddRef a, BddRef b) {
  if (is_invalid(a) || is_invalid(b)) return kInvalid;
  if (a == kFalse) return b;
  if (b == kFalse) return a;
  if (a == kTrue) return b ^ 1u;
  if (b == kTrue) return a ^ 1u;
  if (a == b) return kFalse;
  if (a == (b ^ 1u)) return kTrue;
  if (gov_ != nullptr && !gov_->poll()) return kInvalid;
  // XOR ignores operand phases up to an output flip: normalise to regular
  // operands so all four phase combinations share one cache entry.
  const BddRef comp = (a & 1u) ^ (b & 1u);
  a &= ~1u;
  b &= ~1u;
  if (a > b) std::swap(a, b);
  uint64_t hit;
  if (cache_find(Op::Xor, a, b, 0, &hit))
    return static_cast<BddRef>(hit) ^ comp;
  const int la = level_of_ref(a);
  const int lb = level_of_ref(b);
  const int l = std::min(la, lb);
  const BddRef a0 = la == l ? lo_of(a) : a;
  const BddRef a1 = la == l ? hi_of(a) : a;
  const BddRef b0 = lb == l ? lo_of(b) : b;
  const BddRef b1 = lb == l ? hi_of(b) : b;
  const BddRef r0 = xor_rec(a0, b0);
  if (is_invalid(r0)) return kInvalid;
  const BddRef r1 = xor_rec(a1, b1);
  if (is_invalid(r1)) return kInvalid;
  const BddRef r = mk(order_[static_cast<std::size_t>(l)], r0, r1);
  cache_put(Op::Xor, a, b, 0, r);
  return r ^ comp;
}

BddRef BddManager::bdd_and(BddRef a, BddRef b) {
  maybe_reorder(a, b);
  return and_rec(a, b);
}

BddRef BddManager::bdd_or(BddRef a, BddRef b) {
  maybe_reorder(a, b);
  const BddRef r = and_rec(a ^ 1u, b ^ 1u); // De Morgan, shares the AND cache
  return is_invalid(r) ? kInvalid : r ^ 1u;
}

BddRef BddManager::bdd_xor(BddRef a, BddRef b) {
  maybe_reorder(a, b);
  return xor_rec(a, b);
}

BddRef BddManager::bdd_ite(BddRef f, BddRef g, BddRef h) {
  ref(h);
  maybe_reorder(f, g);
  deref(h);
  ReorderHold hold(*this); // the composition holds unpinned intermediates
  const BddRef fg = and_rec(f, g);
  if (is_invalid(fg)) return kInvalid;
  const BddRef fh = and_rec(f ^ 1u, h);
  if (is_invalid(fh)) return kInvalid;
  const BddRef r = and_rec(fg ^ 1u, fh ^ 1u);
  return is_invalid(r) ? kInvalid : r ^ 1u;
}

BddRef BddManager::cof_rec(BddRef f, int v, int lv, bool value) {
  if (is_invalid(f)) return kInvalid;
  if (is_terminal(f) || level_of_ref(f) > lv) return f;
  if (gov_ != nullptr && !gov_->poll()) return kInvalid;
  const BddRef c = f & 1u;
  const BddRef fr = f ^ c; // cache on the regular phase
  if (nodes_[node_index(fr)].var == v)
    return (value ? hi_of(fr) : lo_of(fr)) ^ c;
  const Op op = value ? Op::Cof1 : Op::Cof0;
  uint64_t hit;
  if (cache_find(op, fr, static_cast<BddRef>(v), 0, &hit))
    return static_cast<BddRef>(hit) ^ c;
  const BddRef r0 = cof_rec(lo_of(fr), v, lv, value);
  if (is_invalid(r0)) return kInvalid;
  const BddRef r1 = cof_rec(hi_of(fr), v, lv, value);
  if (is_invalid(r1)) return kInvalid;
  const BddRef r = mk(nodes_[node_index(fr)].var, r0, r1);
  cache_put(op, fr, static_cast<BddRef>(v), 0, r);
  return r ^ c;
}

BddRef BddManager::cofactor(BddRef f, int v, bool value) {
  maybe_reorder(f);
  return cof_rec(f, v, perm_[static_cast<std::size_t>(v)], value);
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

BitVec BddManager::support(BddRef f) {
  BitVec s(static_cast<std::size_t>(nvars_));
  if (is_invalid(f)) return s;
  std::vector<uint32_t> stack{node_index(f)};
  std::vector<uint8_t> seen(nodes_.size(), 0);
  while (!stack.empty()) {
    const uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || seen[i]) continue;
    seen[i] = 1;
    s.set(static_cast<std::size_t>(nodes_[i].var));
    stack.push_back(node_index(nodes_[i].lo));
    stack.push_back(node_index(nodes_[i].hi));
  }
  return s;
}

bool BddManager::depends_on(BddRef f, int v) {
  if (is_invalid(f)) return false;
  const int lv = perm_[static_cast<std::size_t>(v)];
  std::vector<uint32_t> stack{node_index(f)};
  std::vector<uint8_t> seen(nodes_.size(), 0);
  while (!stack.empty()) {
    const uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || seen[i]) continue;
    seen[i] = 1;
    const int l = perm_[static_cast<std::size_t>(nodes_[i].var)];
    if (l > lv) continue; // whole subgraph sits below v's level
    if (nodes_[i].var == v) return true;
    stack.push_back(node_index(nodes_[i].lo));
    stack.push_back(node_index(nodes_[i].hi));
  }
  return false;
}

double BddManager::density_rec(BddRef f) {
  assert(!is_complement(f));
  if (f == kTrue) return 1.0;
  if (gov_ != nullptr && !gov_->poll())
    return std::numeric_limits<double>::quiet_NaN();
  uint64_t hit;
  if (cache_find(Op::Density, f, 0, 0, &hit)) return std::bit_cast<double>(hit);
  const BddRef lo = nodes_[node_index(f)].lo;
  const BddRef hi = nodes_[node_index(f)].hi; // regular by canonical form
  const double dl = (lo & 1u) ? 1.0 - density_rec(lo ^ 1u) : density_rec(lo);
  const double d = 0.5 * (dl + density_rec(hi));
  if (std::isnan(d)) return d; // governor tripped below; never cache
  cache_put(Op::Density, f, 0, 0, std::bit_cast<uint64_t>(d));
  return d;
}

double BddManager::density(BddRef f) {
  if (is_invalid(f)) return std::numeric_limits<double>::quiet_NaN();
  const double d = density_rec(regular(f));
  return is_complement(f) ? 1.0 - d : d;
}

double BddManager::sat_count(BddRef f) {
  return std::ldexp(density(f), nvars_);
}

bool BddManager::enumerate_sat(BddRef f, const std::vector<int>& vars,
                               std::size_t limit,
                               const std::function<bool(const BitVec&)>& cb) {
  // Enumeration descends the diagram, so visit `vars` in level order; the
  // assignment slot of each variable still follows `vars` as given.
  std::vector<std::size_t> slots(vars.size());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  std::sort(slots.begin(), slots.end(), [&](std::size_t a, std::size_t b) {
    return perm_[static_cast<std::size_t>(vars[a])] <
           perm_[static_cast<std::size_t>(vars[b])];
  });

  BitVec assign(vars.size());
  std::size_t produced = 0;
  bool ok = true;

  if (is_invalid(f)) return false;

  const std::function<bool(BddRef, std::size_t)> rec =
      [&](BddRef g, std::size_t depth) -> bool {
    if (!ok) return false;
    if (g == kFalse) return true;
    if (gov_ != nullptr && !gov_->poll()) {
      ok = false; // reported as an incomplete enumeration, like `limit`
      return false;
    }
    if (depth == slots.size()) {
      if (g != kTrue) {
        // Function still depends on variables outside `vars` — precondition
        // violated.
        throw std::logic_error("enumerate_sat: support not contained in vars");
      }
      if (produced++ >= limit) {
        ok = false;
        return false;
      }
      if (!cb(assign)) {
        ok = false;
        return false;
      }
      return true;
    }
    const std::size_t slot = slots[depth];
    const int lv = perm_[static_cast<std::size_t>(vars[slot])];
    BddRef g0 = g;
    BddRef g1 = g;
    if (!is_terminal(g)) {
      if (level_of_ref(g) < lv)
        throw std::logic_error("enumerate_sat: node above enumeration range");
      if (level_of_ref(g) == lv) {
        g0 = lo_of(g);
        g1 = hi_of(g);
      }
    }
    assign.set(slot, false);
    if (!rec(g0, depth + 1)) return false;
    assign.set(slot, true);
    if (!rec(g1, depth + 1)) return false;
    assign.set(slot, false);
    return true;
  };
  rec(f, 0);
  return ok;
}

BitVec BddManager::pick_sat(BddRef f) {
  assert(f != kFalse);
  BitVec assign(static_cast<std::size_t>(nvars_));
  BddRef g = f;
  while (!is_terminal(g)) {
    // Any ref other than kFalse is satisfiable, so follow a living branch.
    if (hi_of(g) != kFalse) {
      assign.set(static_cast<std::size_t>(var_of(g)), true);
      g = hi_of(g);
    } else {
      g = lo_of(g);
    }
  }
  return assign;
}

BddRef BddManager::mk_node(int var, BddRef lo, BddRef hi) {
  if (is_invalid(lo) || is_invalid(hi)) return kInvalid;
  assert(var >= 0 && var < nvars_);
  assert(is_terminal(lo) ||
         level_of_ref(lo) > perm_[static_cast<std::size_t>(var)]);
  assert(is_terminal(hi) ||
         level_of_ref(hi) > perm_[static_cast<std::size_t>(var)]);
  return mk(var, lo, hi);
}

BddRef BddManager::from_cube(const Cube& c) {
  // Build bottom-up (deepest level first) to keep mk() linear.
  std::vector<int> lits;
  for (int v = 0; v < nvars_; ++v)
    if (c.has_pos(v) || c.has_neg(v)) lits.push_back(v);
  std::sort(lits.begin(), lits.end(), [&](int a, int b) {
    return perm_[static_cast<std::size_t>(a)] >
           perm_[static_cast<std::size_t>(b)];
  });
  BddRef r = kTrue;
  for (const int v : lits)
    r = c.has_pos(v) ? mk(v, kFalse, r) : mk(v, r, kFalse);
  return r;
}

BddRef BddManager::from_cover(const Cover& c) {
  maybe_reorder();
  ReorderHold hold(*this); // the partial ORs below are unpinned
  // Balanced OR reduction keeps intermediate BDDs small.
  std::vector<BddRef> parts;
  parts.reserve(c.size());
  for (const auto& cube : c.cubes()) parts.push_back(from_cube(cube));
  if (parts.empty()) return kFalse;
  while (parts.size() > 1) {
    std::vector<BddRef> next;
    next.reserve((parts.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
      const BddRef r = and_rec(parts[i] ^ 1u, parts[i + 1] ^ 1u);
      if (is_invalid(r)) return kInvalid;
      next.push_back(r ^ 1u);
    }
    if (parts.size() % 2 == 1) next.push_back(parts.back());
    parts.swap(next);
  }
  return parts[0];
}

bool BddManager::eval(BddRef f, const BitVec& assignment) const {
  assert(!is_invalid(f));
  BddRef g = f;
  while (!is_terminal(g))
    g = assignment.get(static_cast<std::size_t>(var_of(g))) ? hi_of(g)
                                                            : lo_of(g);
  return g == kTrue;
}

std::size_t BddManager::size(BddRef f) const {
  if (is_terminal(f) || is_invalid(f)) return 0;
  std::vector<uint32_t> stack{node_index(f)};
  std::vector<uint8_t> seen(nodes_.size(), 0);
  std::size_t count = 0;
  while (!stack.empty()) {
    const uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || seen[i]) continue;
    seen[i] = 1;
    ++count;
    stack.push_back(node_index(nodes_[i].lo));
    stack.push_back(node_index(nodes_[i].hi));
  }
  return count;
}

std::string BddManager::to_dot(BddRef f, const std::string& name) const {
  std::ostringstream out;
  out << "digraph \"" << name << "\" {\n";
  out << "  node0 [label=\"1\", shape=box];\n";
  if (is_complement(f))
    out << "  f [shape=none]; f -> node" << node_index(f)
        << " [style=dotted, arrowhead=odot];\n";
  std::vector<uint32_t> stack{node_index(f)};
  std::vector<uint8_t> seen(nodes_.size(), 0);
  while (!stack.empty()) {
    const uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || seen[i]) continue;
    seen[i] = 1;
    const Node& n = nodes_[i];
    out << "  node" << i << " [label=\"x" << n.var << "\"];\n";
    out << "  node" << i << " -> node" << node_index(n.lo) << " [style=dashed"
        << (is_complement(n.lo) ? ", arrowhead=odot" : "") << "];\n";
    out << "  node" << i << " -> node" << node_index(n.hi) << ";\n";
    stack.push_back(node_index(n.lo));
    stack.push_back(node_index(n.hi));
  }
  out << "}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

BddRef BddManager::ref(BddRef f) {
  if (f > kFalse && !is_invalid(f)) ++nodes_[node_index(f)].ext_ref;
  return f;
}

void BddManager::deref(BddRef f) {
  if (f > kFalse && !is_invalid(f)) {
    assert(nodes_[node_index(f)].ext_ref > 0);
    --nodes_[node_index(f)].ext_ref;
  }
}

std::size_t BddManager::gc() {
  ++stats_.gc_runs;
  // Mark everything reachable from an externally pinned root.
  std::vector<uint8_t> mark(nodes_.size(), 0);
  mark[0] = 1;
  std::vector<uint32_t> stack;
  for (uint32_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i].var != kFreeVar && nodes_[i].ext_ref > 0) stack.push_back(i);
  while (!stack.empty()) {
    const uint32_t i = stack.back();
    stack.pop_back();
    if (mark[i]) continue;
    mark[i] = 1;
    stack.push_back(node_index(nodes_[i].lo));
    stack.push_back(node_index(nodes_[i].hi));
  }
  // Sweep, rebuilding each unique subtable from its survivors.
  for (auto& t : tables_) {
    std::fill(t.buckets.begin(), t.buckets.end(), 0);
    t.count = 0;
  }
  std::size_t freed = 0;
  for (uint32_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].var == kFreeVar) continue;
    if (mark[i]) {
      Subtable& st = tables_[static_cast<std::size_t>(nodes_[i].var)];
      const std::size_t b =
          hash2(nodes_[i].lo, nodes_[i].hi) & (st.buckets.size() - 1);
      nodes_[i].next = st.buckets[b];
      st.buckets[b] = i;
      ++st.count;
    } else {
      // Dead parents release their edges; liveness was already decided by
      // the mark phase, so no cascading is needed here.
      if (nodes_[i].lo > kFalse) --nodes_[node_index(nodes_[i].lo)].edge_ref;
      if (nodes_[i].hi > kFalse) --nodes_[node_index(nodes_[i].hi)].edge_ref;
      free_node(i);
      ++freed;
    }
  }
  cache_clear(); // freed slots can be reused; cached refs would alias
  return freed;
}

// ---------------------------------------------------------------------------
// Dynamic reordering (Rudell sifting)
// ---------------------------------------------------------------------------

void BddManager::swap_levels(int l) {
  const int x = order_[static_cast<std::size_t>(l)];
  const int y = order_[static_cast<std::size_t>(l) + 1];
  Subtable& sx = tables_[static_cast<std::size_t>(x)];

  std::vector<uint32_t> xs;
  xs.reserve(sx.count);
  for (const uint32_t head : sx.buckets)
    for (uint32_t i = head; i != 0; i = nodes_[i].next) xs.push_back(i);
  std::fill(sx.buckets.begin(), sx.buckets.end(), 0);
  sx.count = 0;

  // Pass 1: x-nodes not touching y keep their structure (they simply sink
  // one level). Reinsert them first so pass 2 interns against them instead
  // of creating duplicates.
  std::vector<uint32_t> rewrite;
  for (const uint32_t i : xs) {
    const Node& nd = nodes_[i];
    if (nodes_[node_index(nd.lo)].var == y ||
        nodes_[node_index(nd.hi)].var == y) {
      rewrite.push_back(i);
    } else {
      const std::size_t b = hash2(nd.lo, nd.hi) & (sx.buckets.size() - 1);
      nodes_[i].next = sx.buckets[b];
      sx.buckets[b] = i;
      ++sx.count;
    }
  }

  order_[static_cast<std::size_t>(l)] = y;
  order_[static_cast<std::size_t>(l) + 1] = x;
  perm_[static_cast<std::size_t>(x)] = l + 1;
  perm_[static_cast<std::size_t>(y)] = l;

  // Pass 2: rewrite each remaining node in place from an x-node into the
  // equivalent y-node. Node identity (and therefore every outstanding
  // BddRef) is preserved; only the internal structure changes.
  for (const uint32_t i : rewrite) {
    const BddRef L = nodes_[i].lo;
    const BddRef H = nodes_[i].hi;
    BddRef l0, l1, h0, h1;
    if (nodes_[node_index(L)].var == y) {
      l0 = lo_of(L);
      l1 = hi_of(L);
    } else {
      l0 = l1 = L;
    }
    if (nodes_[node_index(H)].var == y) {
      h0 = lo_of(H);
      h1 = hi_of(H);
    } else {
      h0 = h1 = H;
    }
    const BddRef g0 = mk(x, l0, h0);
    inc_edge(g0);
    const BddRef g1 = mk(x, l1, h1);
    inc_edge(g1);
    assert(!is_complement(g1)); // h1 is regular, so mk cannot complement
    assert(g0 != g1);
    // The old children may now be dead; reclaim eagerly so the sifting
    // size metric tracks the true live count.
    dec_edge_reclaim(L);
    dec_edge_reclaim(H);
    Node& nd = nodes_[i];
    nd.var = y;
    nd.lo = g0;
    nd.hi = g1;
    Subtable& sy = tables_[static_cast<std::size_t>(y)];
    const std::size_t b = hash2(g0, g1) & (sy.buckets.size() - 1);
    nd.next = sy.buckets[b];
    sy.buckets[b] = i;
    ++sy.count;
    if (sy.count > sy.buckets.size()) rehash(sy);
  }
}

void BddManager::sift_one(int v) {
  const int n = nvars_;
  std::size_t best = live_;
  int best_level = perm_[static_cast<std::size_t>(v)];
  const std::size_t limit = live_ + live_ / 5 + 4; // 1.2x growth abort

  const auto sweep = [&](bool down) {
    while (down ? perm_[static_cast<std::size_t>(v)] < n - 1
                : perm_[static_cast<std::size_t>(v)] > 0) {
      // A sweep may stop between swaps at any point; the return-to-best
      // loops below always run to completion, so the structure stays
      // canonical even when the governor trips mid-sift.
      if (gov_ != nullptr && !gov_->poll()) break;
      const int at = perm_[static_cast<std::size_t>(v)];
      swap_levels(down ? at : at - 1);
      ++stats_.reorder_swaps;
      if (live_ < best) {
        best = live_;
        best_level = perm_[static_cast<std::size_t>(v)];
      }
      if (live_ > limit) break;
    }
  };
  // Visit the nearer end first, then sweep across to the other.
  const bool down_first = (n - 1 - best_level) <= best_level;
  sweep(down_first);
  sweep(!down_first);
  // Return to the best level seen.
  while (perm_[static_cast<std::size_t>(v)] > best_level) {
    swap_levels(perm_[static_cast<std::size_t>(v)] - 1);
    ++stats_.reorder_swaps;
  }
  while (perm_[static_cast<std::size_t>(v)] < best_level) {
    swap_levels(perm_[static_cast<std::size_t>(v)]);
    ++stats_.reorder_swaps;
  }
}

std::size_t BddManager::reorder() {
  ++stats_.reorder_runs;
  ++hold_; // no re-entry while levels are in motion
  // Sift the largest subtables first; they have the most to gain.
  std::vector<int> vs(static_cast<std::size_t>(nvars_));
  std::iota(vs.begin(), vs.end(), 0);
  std::sort(vs.begin(), vs.end(), [&](int a, int b) {
    return tables_[static_cast<std::size_t>(a)].count >
           tables_[static_cast<std::size_t>(b)].count;
  });
  for (const int v : vs) {
    if (gov_ != nullptr && gov_->exhausted()) break;
    sift_one(v);
  }
  --hold_;
  // Node slots freed during sifting can be recycled; cached refs to them
  // would alias new functions.
  cache_clear();
  next_reorder_at_ = std::max(kAutoReorderMin, live_ * 2);
  return live_;
}

void BddManager::maybe_reorder(BddRef a, BddRef b) {
  if (!auto_reorder_ || hold_ != 0 || live_ < next_reorder_at_) return;
  if (gov_ != nullptr && gov_->exhausted()) return;
  ref(a);
  ref(b);
  reorder();
  deref(a);
  deref(b);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

BddStats BddManager::stats() const {
  BddStats s = stats_;
  s.live_nodes = live_;
  s.peak_live_nodes = peak_live_;
  return s;
}

bool BddManager::check_canonical() const {
  std::set<std::tuple<int, BddRef, BddRef>> triples;
  std::vector<uint32_t> edge_counts(nodes_.size(), 0);
  std::size_t live_seen = 0;
  for (uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var == kFreeVar) continue;
    ++live_seen;
    if (n.var < 0 || n.var >= nvars_) return false;
    if (is_complement(n.hi)) return false; // canonical then-edge
    if (n.lo == n.hi) return false;        // reduced
    const int l = perm_[static_cast<std::size_t>(n.var)];
    for (const BddRef child : {n.lo, n.hi}) {
      const uint32_t ci = node_index(child);
      if (ci != 0) {
        if (nodes_[ci].var == kFreeVar) return false; // dangling edge
        if (perm_[static_cast<std::size_t>(nodes_[ci].var)] <= l) return false;
        ++edge_counts[ci];
      }
    }
    if (!triples.emplace(n.var, n.lo, n.hi).second) return false; // duplicate
  }
  if (live_seen != live_) return false;
  // Every live node must be reachable through its own subtable, and edge
  // reference counts must match the real in-degree.
  std::size_t chained = 0;
  for (int v = 0; v < nvars_; ++v) {
    const Subtable& st = tables_[static_cast<std::size_t>(v)];
    std::size_t in_table = 0;
    for (const uint32_t head : st.buckets)
      for (uint32_t i = head; i != 0; i = nodes_[i].next) {
        if (nodes_[i].var != v) return false;
        ++in_table;
      }
    if (in_table != st.count) return false;
    chained += in_table;
  }
  if (chained != live_) return false;
  for (uint32_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].var == kFreeVar) continue;
    if (nodes_[i].edge_ref != edge_counts[i]) return false;
  }
  return true;
}

} // namespace rmsyn
