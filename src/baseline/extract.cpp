#include "baseline/extract.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "baseline/divide.hpp"
#include "baseline/kernels.hpp"
#include "sop/minimize.hpp"

namespace rmsyn {

namespace {

constexpr std::size_t kMaxKernelsPerNode = 64;
constexpr std::size_t kMaxRounds = 64;
/// Minimum literal saving for a kernel extraction to fire.
constexpr int kMinValue = 1;

// Orders cubes as their espresso strings ("1-0-") compare: at the lowest
// variable where they differ, '-' < '0' < '1'.
bool text_less(const Cube& a, const Cube& b) {
  for (std::size_t w = 0; w < a.pos_mask().words(); ++w) {
    const uint64_t ap = a.pos_mask().word(w), bp = b.pos_mask().word(w);
    const uint64_t an = a.neg_mask().word(w), bn = b.neg_mask().word(w);
    const uint64_t diff = (ap ^ bp) | (an ^ bn);
    if (diff == 0) continue;
    const uint64_t bit = diff & -diff;
    const int ka = (ap & bit) != 0 ? 2 : (an & bit) != 0 ? 1 : 0;
    const int kb = (bp & bit) != 0 ? 2 : (bn & bit) != 0 ? 1 : 0;
    return ka < kb;
  }
  return false;
}

// Canonical form of a kernel: its cubes in text order. Keys compare as the
// joined, sorted cube strings would (all covers share one width).
struct KernelKey {
  std::vector<Cube> cubes;
  bool operator<(const KernelKey& o) const {
    return std::lexicographical_compare(cubes.begin(), cubes.end(),
                                        o.cubes.begin(), o.cubes.end(),
                                        text_less);
  }
};

KernelKey canon(const Cover& c) {
  KernelKey k{c.cubes()};
  std::sort(k.cubes.begin(), k.cubes.end(), text_less);
  return k;
}

/// Rewrites node `var` as Q·w + R where w is the new divisor variable.
bool substitute_divisor(SopNetwork& sn, int var, const Cover& divisor, int w) {
  const auto [q, r] = divide(sn.cover_of(var), divisor);
  if (q.empty()) return false;
  Cover next(sn.num_vars());
  Cube wlit(sn.num_vars());
  wlit.add_pos(w);
  for (const auto& qc : q.cubes()) next.add(qc.intersect(wlit));
  for (const auto& rc : r.cubes()) next.add(rc);
  sn.set_cover(var, single_cube_containment(next));
  return true;
}

} // namespace

int extract_kernels(SopNetwork& sn, ResourceGovernor* gov) {
  // Each node's kernels, kept from round to round until substitute_divisor
  // rewrites the node. add_node only widens a cover, which widens its
  // kernels the same way, so a cached list is widened before it is keyed.
  std::vector<std::optional<std::vector<Kernel>>> cache; // by variable
  const auto kernels_of = [&](int n) -> const std::vector<Kernel>& {
    const auto i = static_cast<std::size_t>(n);
    if (cache.size() <= i) cache.resize(i + 1);
    auto& ks = cache[i];
    if (!ks) {
      ks = kernels(sn.cover_of(n), kMaxKernelsPerNode);
    } else if (!ks->empty() && ks->front().kernel.nvars() < sn.num_vars()) {
      for (auto& k : *ks) {
        k.kernel.resize_vars(sn.num_vars());
        k.co_kernel.resize_vars(sn.num_vars());
      }
    }
    return *ks;
  };
  int created = 0;
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    // Gather kernels of all live nodes, grouped by canonical form.
    struct Agg {
      Cover kernel{0};
      std::vector<int> nodes;
      int saving = 0; ///< Σ per-instance literal savings
      int lits = 0;
    };
    std::map<KernelKey, Agg> agg;
    bool budget_ok = true;
    for (const int n : sn.topo_nodes()) {
      if (gov != nullptr && !gov->poll()) {
        budget_ok = false;
        break;
      }
      const Cover& f = sn.cover_of(n);
      if (f.size() < 2) continue;
      for (const auto& k : kernels_of(n)) {
        if (k.kernel.size() < 2) continue;
        auto& a = agg[canon(k.kernel)];
        if (a.nodes.empty()) {
          a.kernel = k.kernel;
          a.lits = k.kernel.literal_count();
        }
        // One instance = (node, co-kernel): the cubes co·K (|K| copies of
        // the co-kernel plus the kernel literals) collapse to co·w.
        const int co_lits = k.co_kernel.literal_count();
        a.saving += static_cast<int>(k.kernel.size()) * co_lits + a.lits -
                    co_lits - 1;
        if (a.nodes.empty() || a.nodes.back() != n) a.nodes.push_back(n);
      }
    }
    if (!budget_ok) break; // partial kernel census: don't extract from it
    // Best kernel by total literal saving, net of the new node's own cost.
    const Agg* best = nullptr;
    int best_value = kMinValue - 1;
    for (const auto& [key, a] : agg) {
      const int value = a.saving - a.lits;
      if (value > best_value) {
        best_value = value;
        best = &a;
      }
    }
    if (best == nullptr) break;
    Cover divisor = best->kernel;
    const std::vector<int> targets = best->nodes;
    const int w = sn.add_node(divisor);
    divisor.resize_vars(sn.num_vars());
    bool any = false;
    for (const int n : targets) {
      if (!substitute_divisor(sn, n, divisor, w)) continue;
      cache[static_cast<std::size_t>(n)].reset();
      any = true;
    }
    if (!any) break;
    ++created;
  }
  return created;
}

int extract_cubes(SopNetwork& sn, ResourceGovernor* gov) {
  int created = 0;
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    // Count occurrences of literal pairs across all cubes of all nodes.
    // Literal index: 2v (positive) / 2v+1 (negative).
    std::map<std::pair<int, int>, int> pair_count;
    const auto nodes = sn.topo_nodes();
    std::vector<int> lits;
    bool budget_ok = true;
    for (const int n : nodes) {
      if (gov != nullptr && !gov->poll()) {
        budget_ok = false;
        break;
      }
      for (const auto& cube : sn.cover_of(n).cubes()) {
        lits.clear();
        for (std::size_t w = 0; w < cube.pos_mask().words(); ++w) {
          const uint64_t pos = cube.pos_mask().word(w);
          for (uint64_t m = pos | cube.neg_mask().word(w); m != 0; m &= m - 1) {
            const int b = __builtin_ctzll(m);
            lits.push_back(2 * (static_cast<int>(w) * 64 + b) +
                           ((pos >> b) & 1 ? 0 : 1));
          }
        }
        for (std::size_t i = 0; i < lits.size(); ++i)
          for (std::size_t j = i + 1; j < lits.size(); ++j)
            ++pair_count[{lits[i], lits[j]}];
      }
    }
    if (!budget_ok) break; // partial pair census: don't extract from it
    std::pair<int, int> best{-1, -1};
    int best_cnt = 2; // need at least 3 occurrences to save literals
    for (const auto& [p, cnt] : pair_count) {
      if (cnt > best_cnt) {
        best_cnt = cnt;
        best = p;
      }
    }
    if (best.first < 0) break;

    Cube divisor(sn.num_vars());
    if (best.first % 2 == 0) divisor.add_pos(best.first / 2);
    else divisor.add_neg(best.first / 2);
    if (best.second % 2 == 0) divisor.add_pos(best.second / 2);
    else divisor.add_neg(best.second / 2);

    Cover div_cover(sn.num_vars());
    div_cover.add(divisor);
    const int w = sn.add_node(div_cover);
    divisor.resize_vars(sn.num_vars());

    bool any = false;
    for (const int n : nodes) {
      if (n == w) continue;
      const Cover& f = sn.cover_of(n);
      bool touches = false;
      Cover next(sn.num_vars());
      Cube wlit(sn.num_vars());
      wlit.add_pos(w);
      for (const auto& cube : f.cubes()) {
        if (cube.divisible_by(divisor)) {
          next.add(cube.divide(divisor).intersect(wlit));
          touches = true;
        } else {
          next.add(cube);
        }
      }
      if (touches) {
        sn.set_cover(n, next);
        any = true;
      }
    }
    if (!any) break;
    ++created;
  }
  return created;
}

} // namespace rmsyn
