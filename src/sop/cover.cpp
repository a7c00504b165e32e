#include "sop/cover.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace rmsyn {
namespace {
struct TautologyBudgetExceeded {};
} // namespace
} // namespace rmsyn

namespace rmsyn {

Cover Cover::constant(int nvars, bool value) {
  Cover c(nvars);
  if (value) c.add(Cube(nvars));
  return c;
}

Cover Cover::literal(int nvars, int var, bool positive) {
  Cube cube(nvars);
  if (positive) cube.add_pos(var); else cube.add_neg(var);
  Cover c(nvars);
  c.add(cube);
  return c;
}

Cover Cover::from_truth_table(const TruthTable& tt) {
  Cover c(tt.nvars());
  for (uint64_t m = 0; m < tt.size(); ++m) {
    if (!tt.get(m)) continue;
    Cube cube(tt.nvars());
    for (int v = 0; v < tt.nvars(); ++v) {
      if ((m >> v) & 1) cube.add_pos(v); else cube.add_neg(v);
    }
    c.add(std::move(cube));
  }
  return c;
}

int Cover::literal_count() const {
  int n = 0;
  for (const auto& c : cubes_) n += c.literal_count();
  return n;
}

bool Cover::has_universal_cube() const {
  return std::any_of(cubes_.begin(), cubes_.end(),
                     [](const Cube& c) { return c.is_universal(); });
}

bool Cover::eval(uint64_t minterm) const {
  return std::any_of(cubes_.begin(), cubes_.end(),
                     [&](const Cube& c) { return c.eval(minterm); });
}

bool Cover::eval(const BitVec& assignment) const {
  return std::any_of(cubes_.begin(), cubes_.end(),
                     [&](const Cube& c) { return c.eval(assignment); });
}

Cover Cover::cofactor(int var, bool value) const {
  Cover r(nvars_);
  for (const Cube& c : cubes_) {
    if (value ? c.has_neg(var) : c.has_pos(var)) continue; // vanishes
    r.cubes_.push_back(c);
    r.cubes_.back().cofactor_inplace(var, value);
  }
  return r;
}

Cover Cover::cofactor(const Cube& cube) const {
  Cover r(nvars_);
  for (const Cube& c : cubes_) {
    if (c.clashes(cube)) continue;
    r.cubes_.push_back(c);
    r.cubes_.back().drop_literals(cube);
  }
  return r;
}

int Cover::most_binate_var() const {
  // Only the binate variables are counted, in per-thread scratch that is
  // zeroed again on the way out.
  if (cubes_.empty()) return -1;
  const std::size_t nw = cubes_[0].pos_mask().words();
  thread_local std::vector<uint64_t> binate, neg_or;
  thread_local std::vector<int> count;
  binate.assign(nw, 0); // the positive literals' union, until masked below
  neg_or.assign(nw, 0);
  for (const auto& c : cubes_) {
    for (std::size_t w = 0; w < nw; ++w) {
      binate[w] |= c.pos_mask().word(w);
      neg_or[w] |= c.neg_mask().word(w);
    }
  }
  uint64_t any = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    binate[w] &= neg_or[w];
    any |= binate[w];
  }
  if (any == 0) return -1;
  if (count.size() < nw * 64) count.resize(nw * 64, 0);
  for (const auto& c : cubes_) {
    for (std::size_t w = 0; w < nw; ++w) {
      const uint64_t lits = c.pos_mask().word(w) | c.neg_mask().word(w);
      for (uint64_t m = lits & binate[w]; m != 0; m &= m - 1)
        ++count[w * 64 + static_cast<std::size_t>(__builtin_ctzll(m))];
    }
  }
  int best = -1, best_score = -1;
  for (std::size_t w = 0; w < nw; ++w) {
    for (uint64_t m = binate[w]; m != 0; m &= m - 1) {
      const std::size_t v = w * 64 + static_cast<std::size_t>(__builtin_ctzll(m));
      if (count[v] > best_score) {
        best_score = count[v];
        best = static_cast<int>(v);
      }
      count[v] = 0;
    }
  }
  return best;
}

namespace {

// Any variable with a literal (used for complementing unate covers).
int any_var(const Cover& f) {
  for (const auto& c : f.cubes()) {
    for (std::size_t w = 0; w < c.pos_mask().words(); ++w) {
      const uint64_t m = c.pos_mask().word(w) | c.neg_mask().word(w);
      if (m != 0) return static_cast<int>(w * 64) + __builtin_ctzll(m);
    }
  }
  return -1;
}

bool tautology_rec(const Cover& f, long& budget) {
  if (f.has_universal_cube()) return true;
  if (f.empty()) return false;
  if (--budget < 0) throw TautologyBudgetExceeded{};
  const int v = f.most_binate_var();
  if (v < 0) {
    // Unate cover: tautology iff it contains the universal cube (already
    // checked above).
    return false;
  }
  return tautology_rec(f.cofactor(v, false), budget) &&
         tautology_rec(f.cofactor(v, true), budget);
}

struct ComplementBudgetExceeded {};

Cover complement_rec(const Cover& f, long& budget) {
  const int n = f.nvars();
  if (--budget < 0) throw ComplementBudgetExceeded{};
  if (f.empty()) return Cover::constant(n, true);
  if (f.has_universal_cube()) return Cover(n);
  if (f.size() == 1) {
    // De Morgan on a single cube.
    Cover r(n);
    const Cube& c = f.cubes()[0];
    for (std::size_t w = 0; w < c.pos_mask().words(); ++w) {
      const uint64_t pos = c.pos_mask().word(w);
      for (uint64_t m = pos | c.neg_mask().word(w); m != 0; m &= m - 1) {
        const int b = __builtin_ctzll(m);
        const int v = static_cast<int>(w * 64) + b;
        Cube lit(n);
        if ((pos >> b) & 1) lit.add_neg(v); else lit.add_pos(v);
        r.add(std::move(lit));
      }
    }
    return r;
  }
  int v = f.most_binate_var();
  if (v < 0) v = any_var(f);
  if (v < 0) return Cover(n); // only universal cubes; handled above
  const Cover c0 = complement_rec(f.cofactor(v, false), budget);
  const Cover c1 = complement_rec(f.cofactor(v, true), budget);
  Cover r(n);
  for (Cube c : c0.cubes()) {
    if (!c.has_var(v)) c.add_neg(v);
    r.add(std::move(c));
  }
  for (Cube c : c1.cubes()) {
    if (!c.has_var(v)) c.add_pos(v);
    r.add(std::move(c));
  }
  return r;
}

} // namespace

bool Cover::is_tautology() const {
  long budget = std::numeric_limits<long>::max();
  return tautology_rec(*this, budget);
}

bool Cover::is_tautology_bounded(long budget, bool* decided) const {
  try {
    const bool r = tautology_rec(*this, budget);
    if (decided != nullptr) *decided = true;
    return r;
  } catch (const TautologyBudgetExceeded&) {
    if (decided != nullptr) *decided = false;
    return false;
  }
}

Cover Cover::complement() const {
  long budget = std::numeric_limits<long>::max();
  return complement_rec(*this, budget);
}

std::optional<Cover> Cover::complement_bounded(long budget) const {
  try {
    return complement_rec(*this, budget);
  } catch (const ComplementBudgetExceeded&) {
    return std::nullopt;
  }
}

bool Cover::covers_cube(const Cube& c) const {
  return cofactor(c).is_tautology();
}

BitVec Cover::support() const {
  BitVec s(static_cast<std::size_t>(nvars_));
  for (const auto& c : cubes_)
    for (std::size_t w = 0; w < s.words(); ++w)
      s.word(w) |= c.pos_mask().word(w) | c.neg_mask().word(w);
  return s;
}

Cover Cover::operator|(const Cover& o) const {
  assert(nvars_ == o.nvars_);
  Cover r = *this;
  for (const auto& c : o.cubes_) r.add(c);
  return r;
}

Cover Cover::operator&(const Cover& o) const {
  assert(nvars_ == o.nvars_);
  Cover r(nvars_);
  for (const auto& a : cubes_) {
    for (const auto& b : o.cubes_) {
      if (!a.clashes(b)) r.add(a.intersect(b));
    }
  }
  return r;
}

TruthTable Cover::to_truth_table() const {
  return TruthTable::from_function(nvars_, [this](uint64_t m) { return eval(m); });
}

std::string Cover::to_string() const {
  std::string s;
  for (const auto& c : cubes_) {
    s += c.to_string();
    s += '\n';
  }
  return s;
}

} // namespace rmsyn
