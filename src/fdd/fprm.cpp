#include "fdd/fprm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>

namespace rmsyn {

bool FprmForm::has_constant_one_cube() const {
  return std::any_of(cubes.begin(), cubes.end(),
                     [](const BitVec& c) { return c.none(); });
}

std::size_t FprmForm::literal_count() const {
  std::size_t n = 0;
  for (const auto& c : cubes) n += c.count();
  return n;
}

bool FprmForm::eval(const BitVec& assignment) const {
  bool acc = false;
  for (const auto& cube : cubes) {
    bool term = true;
    for (std::size_t i = 0; i < support.size() && term; ++i) {
      if (!cube.get(i)) continue;
      const auto v = static_cast<std::size_t>(support[i]);
      const bool lit = polarity.get(v) ? assignment.get(v) : !assignment.get(v);
      term = lit;
    }
    acc ^= term;
  }
  return acc;
}

namespace {

// Memo key: (node ref, depth). Refs fit 32 bits (29 used); pack exactly.
uint64_t memo_key(BddRef f, std::size_t depth) {
  return (static_cast<uint64_t>(depth) << 32) | f;
}

// The per-variable Reed-Muller transform commutes, so the spectrum can be
// built in any variable order; descending the diagram requires the current
// level order of the manager.
std::vector<int> by_level(const BddManager& mgr, const std::vector<int>& vars) {
  std::vector<int> sorted = vars;
  std::sort(sorted.begin(), sorted.end(),
            [&](int a, int b) { return mgr.level_of(a) < mgr.level_of(b); });
  return sorted;
}

} // namespace

BddRef rm_spectrum(BddManager& mgr, BddRef f, const std::vector<int>& vars,
                   const BitVec& polarity) {
  // The walk below captures the level order, so it must not shift mid-build.
  BddManager::ReorderHold hold(mgr);
  const std::vector<int> ordered = by_level(mgr, vars);
  std::unordered_map<uint64_t, BddRef> memo;
  const std::function<BddRef(BddRef, std::size_t)> rec =
      [&](BddRef g, std::size_t depth) -> BddRef {
    if (BddManager::is_invalid(g)) return BddManager::kInvalid;
    if (depth == ordered.size()) {
      assert(mgr.is_terminal(g));
      return g;
    }
    const uint64_t key = memo_key(g, depth);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    const int v = ordered[depth];
    const BddRef g0 = mgr.cofactor(g, v, false);
    const BddRef g1 = mgr.cofactor(g, v, true);
    const BddRef gd = mgr.bdd_xor(g0, g1); // Boolean difference
    if (BddManager::is_invalid(gd)) return BddManager::kInvalid;
    const bool pos = polarity.get(static_cast<std::size_t>(v));
    const BddRef lo = rec(pos ? g0 : g1, depth + 1);
    if (BddManager::is_invalid(lo)) return BddManager::kInvalid;
    const BddRef hi = rec(gd, depth + 1);
    if (BddManager::is_invalid(hi)) return BddManager::kInvalid;
    const BddRef r = mgr.mk_node(v, lo, hi);
    memo.emplace(key, r);
    return r;
  };
  return rec(f, 0);
}

BddRef rm_flip(BddManager& mgr, BddRef spectrum, int v) {
  // The walk below captures v's level, so the order must not shift.
  BddManager::ReorderHold hold(mgr);
  ResourceGovernor* gov = mgr.governor();
  const int lv = mgr.level_of(v);
  std::unordered_map<BddRef, BddRef> memo;
  const auto rec = [&](const auto& self, BddRef g) -> BddRef {
    if (BddManager::is_invalid(g)) return BddManager::kInvalid;
    if (gov != nullptr && !gov->poll()) return BddManager::kInvalid;
    const int lg = mgr.level_of_ref(g); // terminals sit below every level
    if (lg > lv) return mgr.mk_node(v, BddManager::kFalse, g);
    if (lg == lv) {
      const BddRef hi = mgr.hi_of(g);
      return mgr.mk_node(v, mgr.bdd_xor(mgr.lo_of(g), hi), hi);
    }
    if (const auto it = memo.find(g); it != memo.end()) return it->second;
    const BddRef lo = self(self, mgr.lo_of(g));
    if (BddManager::is_invalid(lo)) return BddManager::kInvalid;
    const BddRef r = mgr.mk_node(mgr.var_of(g), lo, self(self, mgr.hi_of(g)));
    if (!BddManager::is_invalid(r)) memo.emplace(g, r);
    return r;
  };
  return rec(rec, spectrum);
}

TruthTable rm_spectrum_table(const BddManager& mgr, BddRef f,
                             const std::vector<int>& vars,
                             const BitVec& polarity) {
  const std::vector<int> ordered = by_level(mgr, vars);
  const int k = static_cast<int>(ordered.size());
  std::vector<int> level(ordered.size());
  for (std::size_t d = 0; d < ordered.size(); ++d)
    level[d] = mgr.level_of(ordered[d]);
  TruthTable t(k);
  uint64_t* words = t.raw().data();

  // f's table over ordered[d..k) fits one word once k - d <= 6.
  const auto word = [&](const auto& self, BddRef g, int d) -> uint64_t {
    const int bits = 1 << (k - d);
    if (mgr.is_terminal(g))
      return g == BddManager::kFalse ? 0
             : bits == 64            ? ~uint64_t{0}
                                     : (uint64_t{1} << bits) - 1;
    const int half = bits / 2;
    if (mgr.level_of_ref(g) > level[static_cast<std::size_t>(d)]) {
      const uint64_t r = self(self, g, d + 1);
      return r | r << half;
    }
    return self(self, mgr.lo_of(g), d + 1) |
           self(self, mgr.hi_of(g), d + 1) << half;
  };
  // Wider blocks are written word by word, top level outermost; a (node,
  // depth) pair already written is copied.
  std::unordered_map<uint64_t, std::size_t> written;
  const auto fill = [&](const auto& self, BddRef g, int d, std::size_t at) {
    const std::size_t n = std::size_t{1} << (k - d - 6);
    if (mgr.is_terminal(g)) {
      std::fill_n(words + at, n, g == BddManager::kFalse ? 0 : ~uint64_t{0});
      return;
    }
    const auto [it, fresh] = written.emplace(memo_key(g, d), at);
    if (!fresh) {
      std::copy_n(words + it->second, n, words + at);
      return;
    }
    if (n == 1) {
      words[at] = word(word, g, d);
      return;
    }
    if (mgr.level_of_ref(g) > level[static_cast<std::size_t>(d)]) {
      self(self, g, d + 1, at);
      std::copy_n(words + at, n / 2, words + at + n / 2);
    } else {
      self(self, mgr.lo_of(g), d + 1, at);
      self(self, mgr.hi_of(g), d + 1, at + n / 2);
    }
  };
  if (k <= 6)
    words[0] = word(word, f, 0);
  else
    fill(fill, f, 0, 0);

  t.reed_muller_transform();
  for (int d = 0; d < k; ++d)
    if (!polarity.get(static_cast<std::size_t>(ordered[static_cast<std::size_t>(d)])))
      t.rm_flip(k - 1 - d);
  return t;
}

BddRef rm_inverse(BddManager& mgr, BddRef spectrum, const std::vector<int>& vars,
                  const BitVec& polarity) {
  BddManager::ReorderHold hold(mgr);
  const std::vector<int> ordered = by_level(mgr, vars);
  std::unordered_map<uint64_t, BddRef> memo;
  const std::function<BddRef(BddRef, std::size_t)> rec =
      [&](BddRef r, std::size_t depth) -> BddRef {
    if (BddManager::is_invalid(r)) return BddManager::kInvalid;
    if (depth == ordered.size()) {
      assert(mgr.is_terminal(r));
      return r;
    }
    const uint64_t key = memo_key(r, depth);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    const int v = ordered[depth];
    BddRef r_lo = r, r_hi = r;
    if (!mgr.is_terminal(r) && mgr.var_of(r) == v) {
      r_lo = mgr.lo_of(r);
      r_hi = mgr.hi_of(r);
    }
    const BddRef base = rec(r_lo, depth + 1);  // part without the literal
    if (BddManager::is_invalid(base)) return BddManager::kInvalid;
    const BddRef diff = rec(r_hi, depth + 1);  // coefficient of the literal
    if (BddManager::is_invalid(diff)) return BddManager::kInvalid;
    const bool pos = polarity.get(static_cast<std::size_t>(v));
    const BddRef lit = mgr.literal(v, pos);
    const BddRef g = mgr.bdd_xor(base, mgr.bdd_and(lit, diff));
    if (BddManager::is_invalid(g)) return BddManager::kInvalid;
    memo.emplace(key, g);
    return g;
  };
  return rec(spectrum, 0);
}

double fprm_cube_count(BddManager& mgr, BddRef spectrum,
                       const std::vector<int>& vars) {
  // sat_count counts over all manager variables; scale down to the
  // projection onto `vars`.
  double scale = 1.0;
  for (int i = 0; i < mgr.nvars() - static_cast<int>(vars.size()); ++i)
    scale *= 2.0;
  return mgr.sat_count(spectrum) / scale;
}

Ofdd build_ofdd(BddManager& mgr, BddRef f, const BitVec& polarity) {
  Ofdd o;
  const BitVec sup = mgr.support(f);
  for (std::size_t v = sup.first_set(); v != BitVec::npos; v = sup.next_set(v + 1))
    o.support.push_back(static_cast<int>(v));
  o.polarity = polarity;
  o.root = rm_spectrum(mgr, f, o.support, polarity);
  return o;
}

FprmForm extract_fprm(BddManager& mgr, const Ofdd& ofdd, int nvars,
                      std::size_t cube_limit) {
  FprmForm form;
  form.nvars = nvars;
  form.support = ofdd.support;
  form.polarity = ofdd.polarity;
  const bool complete = mgr.enumerate_sat(
      ofdd.root, ofdd.support, cube_limit, [&](const BitVec& presence) {
        form.cubes.push_back(presence);
        return true;
      });
  form.truncated = !complete;
  return form;
}

namespace {

// The candidate polarity for scan position `mask`: bit i of the mask
// complements variable vars[i], everything else stays positive. Mask 0 is
// PPRM; the exhaustive scan visits masks in ascending order and keeps the
// lowest mask at minimum cost.
BitVec polarity_of_mask(const std::vector<int>& vars, uint64_t mask,
                        int nvars) {
  BitVec pol(static_cast<std::size_t>(nvars));
  pol.set_all();
  for (std::size_t i = 0; i < vars.size(); ++i)
    if ((mask >> i) & 1) pol.set(static_cast<std::size_t>(vars[i]), false);
  return pol;
}


// Widest support whose spectrum the polarity search keeps as a bit table:
// 2^16 bits, 8 KiB. A wider one keeps a pinned BDD spectrum.
constexpr std::size_t kTableVars = 16;

constexpr std::size_t kUnknown = std::numeric_limits<std::size_t>::max();

// One output's Reed-Muller spectrum under the search's current polarity,
// moved between polarities by one-variable flips. Cube and node counts are
// cached per state, and the state before the last flip can be restored.
class Spectrum {
public:
  // The PPRM spectrum of f over its support `vars` (ascending ids), which
  // must outlive the spectrum.
  Spectrum(BddManager& mgr, BddRef f, const std::vector<int>& vars)
      : mgr_(&mgr), vars_(&vars), is_table_(vars.size() <= kTableVars) {
    BitVec positive(static_cast<std::size_t>(mgr.nvars()));
    positive.set_all();
    if (is_table_) {
      table_ = rm_spectrum_table(mgr, f, vars, positive);
      const std::vector<int> ordered = by_level(mgr, vars);
      bit_.resize(vars.size());
      for (std::size_t d = 0; d < ordered.size(); ++d) {
        const auto at = std::lower_bound(vars.begin(), vars.end(), ordered[d]);
        bit_[static_cast<std::size_t>(at - vars.begin())] =
            static_cast<int>(ordered.size() - 1 - d);
      }
    } else {
      bdd_ = mgr.ref(rm_spectrum(mgr, f, vars, positive));
    }
    cubes_ = count();
  }
  // A copy holds the current state only.
  Spectrum(const Spectrum& o)
      : mgr_(o.mgr_), vars_(o.vars_), is_table_(o.is_table_), bit_(o.bit_),
        table_(o.table_), bdd_(o.mgr_->ref(o.bdd_)), cubes_(o.cubes_),
        nodes_(o.nodes_) {}
  Spectrum(Spectrum&& o) noexcept
      : mgr_(o.mgr_), vars_(o.vars_), is_table_(o.is_table_),
        bit_(std::move(o.bit_)), table_(std::move(o.table_)), bdd_(o.bdd_),
        prev_(o.prev_), last_(o.last_), cubes_(o.cubes_),
        prev_cubes_(o.prev_cubes_), nodes_(o.nodes_),
        prev_nodes_(o.prev_nodes_) {
    o.bdd_ = o.prev_ = BddManager::kInvalid;
  }
  Spectrum& operator=(const Spectrum&) = delete;
  ~Spectrum() {
    mgr_->deref(bdd_);
    mgr_->deref(prev_);
  }

  // FPRM cube count; infinite once the governor tripped in a BDD flip.
  double cubes() const { return cubes_; }
  // The spectrum's BddManager::size().
  std::size_t nodes() {
    if (nodes_ == kUnknown)
      nodes_ = is_table_ ? table_.bdd_size() : mgr_->size(bdd_);
    return nodes_;
  }
  // nodes() of the state before the last flip.
  std::size_t prev_nodes() {
    if (prev_nodes_ == kUnknown) {
      if (is_table_) {
        table_.rm_flip(last_);
        prev_nodes_ = table_.bdd_size();
        table_.rm_flip(last_);
      } else {
        prev_nodes_ = mgr_->size(prev_);
      }
    }
    return prev_nodes_;
  }
  // Flips the phase of vars[pos].
  void flip(std::size_t pos) {
    prev_cubes_ = cubes_;
    prev_nodes_ = nodes_;
    nodes_ = kUnknown;
    if (is_table_) {
      last_ = bit_[pos];
      table_.rm_flip(last_);
    } else {
      mgr_->deref(prev_);
      prev_ = bdd_;
      bdd_ = mgr_->ref(rm_flip(*mgr_, bdd_, (*vars_)[pos]));
    }
    cubes_ = count();
  }
  // Returns to the state before the last flip (once).
  void undo() {
    if (is_table_) {
      table_.rm_flip(last_);
    } else {
      mgr_->deref(bdd_);
      bdd_ = prev_;
      prev_ = BddManager::kInvalid;
    }
    cubes_ = prev_cubes_;
    nodes_ = prev_nodes_;
  }

private:
  double count() {
    if (is_table_) return static_cast<double>(table_.count_ones());
    return BddManager::is_invalid(bdd_) ? std::numeric_limits<double>::infinity()
                                        : fprm_cube_count(*mgr_, bdd_, *vars_);
  }

  BddManager* mgr_;
  const std::vector<int>* vars_;
  bool is_table_;
  std::vector<int> bit_; // table input of vars[i]
  TruthTable table_;
  BddRef bdd_ = BddManager::kInvalid;  // pinned
  BddRef prev_ = BddManager::kInvalid; // pinned until the next flip
  int last_ = 0;                       // table input of the last flip
  double cubes_ = 0;
  double prev_cubes_ = 0;
  std::size_t nodes_ = kUnknown;
  std::size_t prev_nodes_ = kUnknown;
};

// The search over one union support. Candidates compare by (total cubes,
// total nodes); node counts are taken only when the cube totals tie.
struct PolaritySearch {
  BddManager& mgr;
  const std::vector<int>& vars;               // union support, ascending
  const std::vector<std::vector<int>>& out_vars;
  std::vector<Spectrum>& spectra;             // PPRM on entry
  ResourceGovernor* gov;
  std::size_t gc_watermark;

  // One poll per evaluated candidate.
  bool out_of_budget() const { return gov != nullptr && !gov->poll(); }
  void collect() const {
    if (mgr.node_count() > gc_watermark) mgr.gc();
  }

  // Every mask of the union support, ascending; the lowest mask at minimum
  // cost wins.
  BitVec exhaustive() {
    const std::size_t n = spectra.size();
    // Output j's cube count under each polarity of its own support, by a
    // Gray-code walk (consecutive codes differ in one flip), and the
    // positions of its support within the union's.
    std::vector<std::vector<double>> cubes(n);
    std::vector<std::vector<std::size_t>> nodes(n);
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> place(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::vector<int>& ov = out_vars[j];
      for (std::size_t p = 0; p < ov.size(); ++p)
        place[j].emplace_back(
            static_cast<std::size_t>(
                std::lower_bound(vars.begin(), vars.end(), ov[p]) -
                vars.begin()),
            p);
      const uint64_t codes = uint64_t{1} << ov.size();
      cubes[j].resize(codes);
      nodes[j].assign(codes, kUnknown);
      Spectrum walk = spectra[j];
      cubes[j][0] = walk.cubes();
      uint64_t code = 0;
      for (uint64_t i = 1; i < codes; ++i) {
        const int p = std::countr_zero(i);
        walk.flip(static_cast<std::size_t>(p));
        code ^= uint64_t{1} << p;
        cubes[j][code] = walk.cubes();
      }
      collect();
    }
    const auto project = [&](std::size_t j, uint64_t mask) {
      uint64_t sub = 0;
      for (const auto& [i, p] : place[j]) sub |= ((mask >> i) & 1) << p;
      return sub;
    };
    const auto total_cubes = [&](uint64_t mask) {
      double c = 0;
      for (std::size_t j = 0; j < n; ++j) c += cubes[j][project(j, mask)];
      return c;
    };
    const auto total_nodes = [&](uint64_t mask) {
      std::size_t t = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const uint64_t sub = project(j, mask);
        if (nodes[j][sub] == kUnknown) {
          Spectrum s = spectra[j];
          for (std::size_t p = 0; p < out_vars[j].size(); ++p)
            if ((sub >> p) & 1) s.flip(p);
          nodes[j][sub] = s.nodes();
        }
        t += nodes[j][sub];
      }
      collect();
      return t;
    };

    uint64_t best = 0;
    double best_cubes = total_cubes(0);
    std::size_t best_nodes = kUnknown;
    const uint64_t total = uint64_t{1} << vars.size();
    for (uint64_t mask = 1; mask < total; ++mask) {
      if (out_of_budget()) break; // keep the best polarity seen so far
      const double c = total_cubes(mask);
      if (c < best_cubes) {
        best = mask;
        best_cubes = c;
        best_nodes = kUnknown;
        continue;
      }
      if (c != best_cubes || std::isinf(c)) continue;
      if (best_nodes == kUnknown) best_nodes = total_nodes(best);
      const std::size_t t = total_nodes(mask);
      if (t < best_nodes) {
        best = mask;
        best_nodes = t;
      }
    }
    return polarity_of_mask(vars, best, mgr.nvars());
  }

  // Greedy one-variable flips from all-positive, in ascending variable
  // order; a flip of v moves only the outputs whose support holds v.
  BitVec greedy(int passes) {
    const std::size_t n = spectra.size();
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> users(
        vars.size());
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = 0; p < out_vars[j].size(); ++p)
        users[static_cast<std::size_t>(
                  std::lower_bound(vars.begin(), vars.end(), out_vars[j][p]) -
                  vars.begin())]
            .emplace_back(j, p);
    const auto total_cubes = [&] {
      double c = 0;
      for (const Spectrum& s : spectra) c += s.cubes();
      return c;
    };

    BitVec best(static_cast<std::size_t>(mgr.nvars()));
    best.set_all();
    double best_cubes = total_cubes();
    std::size_t best_nodes = kUnknown;
    std::vector<uint8_t> moved(n, 0);
    for (int pass = 0; pass < passes; ++pass) {
      bool improved = false;
      for (std::size_t i = 0; i < vars.size(); ++i) {
        if (out_of_budget()) return best; // keep the best polarity seen so far
        for (const auto& [j, p] : users[i]) {
          spectra[j].flip(p);
          moved[j] = 1;
        }
        const double c = total_cubes();
        bool better = c < best_cubes;
        std::size_t cand_nodes = kUnknown;
        if (!better && c == best_cubes && !std::isinf(c)) {
          if (best_nodes == kUnknown) {
            best_nodes = 0;
            for (std::size_t j = 0; j < n; ++j)
              best_nodes += moved[j] ? spectra[j].prev_nodes() : spectra[j].nodes();
          }
          cand_nodes = 0;
          for (Spectrum& s : spectra) cand_nodes += s.nodes();
          better = cand_nodes < best_nodes;
        }
        for (const auto& [j, p] : users[i]) {
          if (!better) spectra[j].undo();
          moved[j] = 0;
        }
        if (better) {
          best.flip(static_cast<std::size_t>(vars[i]));
          best_cubes = c;
          best_nodes = cand_nodes;
          improved = true;
        }
        collect();
      }
      if (!improved) break;
    }
    return best;
  }
};

} // namespace

BitVec best_polarity(BddManager& mgr, BddRef f, const PolarityOptions& opt) {
  // The single-output search is exactly the multi search over one output:
  // same support, same (cube count, node count) cost, same scan order.
  return best_polarity_multi(mgr, {f}, opt);
}

BitVec best_polarity_multi(BddManager& mgr, const std::vector<BddRef>& fs,
                           const PolarityOptions& opt) {
  // Union of the outputs' supports.
  BitVec sup(static_cast<std::size_t>(mgr.nvars()));
  for (const BddRef f : fs) sup |= mgr.support(f);
  std::vector<int> vars;
  for (std::size_t v = sup.first_set(); v != BitVec::npos; v = sup.next_set(v + 1))
    vars.push_back(static_cast<int>(v));

  BitVec best(static_cast<std::size_t>(mgr.nvars()));
  best.set_all();
  if (vars.empty()) return best;

  // Per-output support lists (cube counts are projections onto them);
  // constant outputs cost nothing and are left out.
  std::vector<BddRef> live;
  std::vector<std::vector<int>> out_vars;
  for (const BddRef f : fs) {
    const BitVec s = mgr.support(f);
    if (s.none()) continue;
    std::vector<int> ov;
    for (std::size_t v = s.first_set(); v != BitVec::npos; v = s.next_set(v + 1))
      ov.push_back(static_cast<int>(v));
    live.push_back(f);
    out_vars.push_back(std::move(ov));
  }

  // One long-lived manager: the tables capture the level order, the inputs
  // and the BDD spectra are pinned, and garbage is collected past a
  // watermark.
  BddManager::ReorderHold hold(mgr);
  for (const BddRef f : live) mgr.ref(f);
  std::vector<Spectrum> spectra;
  spectra.reserve(live.size());
  for (std::size_t j = 0; j < live.size(); ++j)
    spectra.emplace_back(mgr, live[j], out_vars[j]);
  PolaritySearch search{mgr,     vars,           out_vars,
                        spectra, mgr.governor(), mgr.node_count() * 2 + 2048};
  best = static_cast<int>(vars.size()) <= opt.exhaustive_limit
             ? search.exhaustive()
             : search.greedy(opt.greedy_passes);
  spectra.clear();
  for (const BddRef f : live) mgr.deref(f);
  return best;
}

std::vector<bool> prime_flags(const FprmForm& form) {
  const auto& cs = form.cubes;
  std::vector<bool> prime(cs.size(), true);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (i == j) continue;
      // Properly contained: subset and not equal.
      if (cs[i].is_subset_of(cs[j]) && cs[i] != cs[j]) {
        prime[i] = false;
        break;
      }
    }
  }
  return prime;
}

TruthTable fprm_spectrum_tt(const TruthTable& f, const BitVec& polarity) {
  // For a negative-polarity variable the FPRM expands on x̄, which equals
  // the PPRM of f with that input complemented.
  uint64_t negative = 0;
  for (int v = 0; v < f.nvars(); ++v)
    if (!polarity.get(static_cast<std::size_t>(v))) negative |= uint64_t{1} << v;
  return f.negate_inputs(negative).pprm_spectrum();
}

TruthTable fprm_to_tt(const FprmForm& form) {
  TruthTable out(form.nvars);
  for (uint64_t m = 0; m < out.size(); ++m) {
    BitVec assign(static_cast<std::size_t>(form.nvars));
    for (int v = 0; v < form.nvars; ++v)
      if ((m >> v) & 1) assign.set(static_cast<std::size_t>(v));
    if (form.eval(assign)) out.set(m);
  }
  return out;
}

} // namespace rmsyn
