#include "sop/minimize.hpp"

#include <algorithm>

namespace rmsyn {

namespace {

// Monotone literal signature: folds the positive mask into the low half and
// the negative mask into the high half with OR only, so a cube covering
// another has a signature that is a subset of the other's. (A mixing hash
// would not be monotone and would hide containments.)
uint64_t literal_signature(const Cube& c) {
  const auto fold = [](uint64_t w) { return (w | (w >> 32)) & 0xFFFFFFFFull; };
  uint64_t s = 0;
  for (std::size_t w = 0; w < c.pos_mask().words(); ++w)
    s |= fold(c.pos_mask().word(w)) | (fold(c.neg_mask().word(w)) << 32);
  return s;
}

// The variable in which a and b hold opposite literals when they agree
// everywhere else (a·x + a·x̄ = a), or -1.
int merge_var(const Cube& a, const Cube& b) {
  int var = -1;
  for (std::size_t w = 0; w < a.pos_mask().words(); ++w) {
    const uint64_t dp = a.pos_mask().word(w) ^ b.pos_mask().word(w);
    const uint64_t dn = a.neg_mask().word(w) ^ b.neg_mask().word(w);
    if (dp != dn) return -1;
    if (dp == 0) continue;
    if (var >= 0 || (dp & (dp - 1)) != 0) return -1;
    var = static_cast<int>(w * 64) + __builtin_ctzll(dp);
  }
  return var;
}

Cover keep_live(const Cover& f, const std::vector<char>& live) {
  Cover r(f.nvars());
  for (std::size_t i = 0; i < f.size(); ++i)
    if (live[i]) r.add(f.cubes()[i]);
  return r;
}

} // namespace

Cover single_cube_containment(const Cover& f) {
  // Keeps cube j iff it is the first occurrence of its value and no cube
  // strictly covers it. A strict cover has strictly fewer literals, so each
  // cube is tested only against kept cubes of smaller literal count.
  const auto& cs = f.cubes();
  const std::size_t n = cs.size();
  std::vector<char> live(n, 1);
  std::size_t slots = 1;
  while (slots < 2 * n) slots <<= 1;
  std::vector<uint32_t> table(slots, UINT32_MAX);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t h = cs[i].hash() & (slots - 1);
    for (; table[h] != UINT32_MAX; h = (h + 1) & (slots - 1))
      if (cs[table[h]] == cs[i]) { live[i] = 0; break; }
    if (live[i]) table[h] = static_cast<uint32_t>(i);
  }

  struct Entry { int lits; uint64_t sig; uint32_t idx; };
  std::vector<Entry> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (live[i])
      order.push_back({cs[i].literal_count(), literal_signature(cs[i]),
                       static_cast<uint32_t>(i)});
  std::sort(order.begin(), order.end(),
            [](const Entry& a, const Entry& b) { return a.lits < b.lits; });
  std::size_t kept = 0; // order[0..kept) are the survivors so far
  for (const Entry& e : order) {
    bool covered = false;
    for (std::size_t k = 0; k < kept && order[k].lits < e.lits; ++k) {
      if ((order[k].sig & ~e.sig) != 0) continue;
      if (cs[order[k].idx].covers(cs[e.idx])) { covered = true; break; }
    }
    if (covered) live[e.idx] = 0;
    else order[kept++] = e;
  }
  return keep_live(f, live);
}

Cover merge_distance_one(const Cover& f) {
  // Merges the lexicographically first mergeable pair (i, j) into slot i,
  // drops j and every cube the merged cube covers, and repeats. Rows below
  // the cursor stay merge-free, so after a merge only the merged cube needs
  // re-checking: first against earlier rows (those pairs come first), then
  // along its own row.
  Cover cur = single_cube_containment(f);
  auto& cs = cur.cubes();
  const std::size_t n = cs.size();
  std::vector<char> live(n, 1);
  std::vector<int> lits(n);
  for (std::size_t i = 0; i < n; ++i) lits[i] = cs[i].literal_count();

  // Merges b into a. The cover was containment-free, so nothing covers
  // the merged cube and the only new containments are the cubes it covers:
  // dropping those is what a full SCC pass would do.
  const auto merge = [&](std::size_t a, std::size_t b, int var) {
    cs[a].drop_var(var);
    --lits[a];
    live[b] = 0;
    for (std::size_t k = 0; k < n; ++k)
      if (live[k] && k != a && lits[k] > lits[a] && cs[a].covers(cs[k]))
        live[k] = 0;
  };
  const auto first_partner = [&](std::size_t p, std::size_t from,
                                 std::size_t to, int& var) {
    for (std::size_t j = from; j < to; ++j) {
      if (!live[j] || lits[j] != lits[p]) continue;
      if ((var = merge_var(cs[p], cs[j])) >= 0) return j;
    }
    return to;
  };

  for (std::size_t row = 0; row < n; ++row) {
    if (!live[row]) continue;
    std::size_t p = row;
    for (;;) {
      int var = -1;
      const std::size_t j = first_partner(p, p + 1, n, var);
      if (j == n) break;
      merge(p, j, var);
      for (;;) {
        const std::size_t a = first_partner(p, 0, p, var);
        if (a == p) break;
        merge(a, p, var);
        p = a;
      }
    }
  }
  return keep_live(cur, live);
}

Cover irredundant(const Cover& f) {
  Cover cur = single_cube_containment(f);
  // Greedy: try removing cubes largest-first; a cube is redundant when the
  // remaining cover still covers it.
  auto order = std::vector<std::size_t>(cur.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cur.cubes()[a].literal_count() > cur.cubes()[b].literal_count();
  });
  std::vector<bool> dead(cur.size(), false);
  for (const std::size_t i : order) {
    // The other live cubes, cofactored by cube i in the same pass.
    const Cube& ci = cur.cubes()[i];
    Cover rest(cur.nvars());
    for (std::size_t j = 0; j < cur.size(); ++j) {
      const Cube& cj = cur.cubes()[j];
      if (j == i || dead[j] || cj.clashes(ci)) continue;
      rest.add(cj);
      rest.cubes().back().drop_literals(ci);
    }
    // Bounded effort: an undecided check keeps the cube (safe).
    if (rest.is_tautology_bounded(20000)) dead[i] = true;
  }
  Cover r(cur.nvars());
  for (std::size_t j = 0; j < cur.size(); ++j)
    if (!dead[j]) r.add(cur.cubes()[j]);
  return r;
}

Cover expand(const Cover& f, const Cover* offset) {
  Cover off_local;
  if (offset == nullptr) {
    off_local = f.complement();
    offset = &off_local;
  }
  Cover r(f.nvars());
  for (Cube c : f.cubes()) {
    // Try dropping literals one at a time; the expansion is valid when the
    // expanded cube stays disjoint from the OFF-set.
    for (int v = 0; v < f.nvars(); ++v) {
      if (!c.has_var(v)) continue;
      Cube wider = c;
      wider.drop_var(v);
      bool hits_off = false;
      for (const auto& oc : offset->cubes()) {
        if (!wider.clashes(oc)) { hits_off = true; break; }
      }
      if (!hits_off) c = wider;
    }
    r.add(std::move(c));
  }
  return single_cube_containment(r);
}

Cover espresso_lite(const Cover& f) {
  Cover cur = merge_distance_one(single_cube_containment(f));
  // Guard against complement blow-up: expansion is an optimization, not
  // needed for correctness, so an undecided complement simply skips it.
  if (cur.size() <= 2048) {
    if (const auto off = cur.complement_bounded(200'000);
        off && off->size() <= 16384) {
      cur = expand(cur, &*off);
      // Expansion opens new merge opportunities.
      cur = merge_distance_one(cur);
    }
  }
  return irredundant(cur);
}

} // namespace rmsyn
