#include "core/parity_analysis.hpp"

#include <algorithm>

#include "core/xor_expr.hpp"

namespace rmsyn {

AnnotatedXorTree build_annotated_tree(const FprmForm& form) {
  AnnotatedXorTree tree;
  tree.form = form;
  std::vector<NodeId> pis;
  for (int v = 0; v < form.nvars; ++v) pis.push_back(tree.net.add_pi());
  LiteralContext ctx(tree.net, pis, form.support, form.polarity);

  const auto cube_sets_of = [&](NodeId n) -> std::vector<uint32_t>& {
    if (tree.cube_sets.size() < tree.net.node_count())
      tree.cube_sets.resize(tree.net.node_count());
    return tree.cube_sets[n];
  };

  // Leaves: one AND node per (non-constant) cube. The constant-1 cube, if
  // present, becomes an inverter at the output (the paper's assumption (2)).
  std::vector<NodeId> leaves;
  bool has_one = false;
  for (uint32_t i = 0; i < form.cubes.size(); ++i) {
    if (form.cubes[i].none()) {
      has_one = true;
      continue;
    }
    const NodeId leaf = ctx.build_cube(form.cubes[i]);
    cube_sets_of(leaf).push_back(i);
    leaves.push_back(leaf);
  }

  // Balanced binary XOR tree (step 5 of the cube method).
  while (leaves.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
      const NodeId x = tree.net.add_xor(leaves[i], leaves[i + 1]);
      auto& set = cube_sets_of(x);
      const auto& a = tree.cube_sets[leaves[i]];
      const auto& b = tree.cube_sets[leaves[i + 1]];
      set.insert(set.end(), a.begin(), a.end());
      set.insert(set.end(), b.begin(), b.end());
      std::sort(set.begin(), set.end());
      tree.xor_gates.push_back(x);
      next.push_back(x);
    }
    if (leaves.size() % 2 == 1) next.push_back(leaves.back());
    leaves = std::move(next);
  }

  NodeId root = leaves.empty() ? Network::kConst0 : leaves[0];
  if (has_one) root = tree.net.add_not(root);
  tree.net.add_po(root);
  tree.cube_sets.resize(tree.net.node_count());
  return tree;
}

namespace {

/// PI assignment realizing "literals of exactly the support-position union
/// U at 1, every other literal at 0" under the form's polarity.
BitVec witness_from_union(const FprmForm& form, const BitVec& u) {
  BitVec assign(static_cast<std::size_t>(form.nvars));
  for (std::size_t i = 0; i < form.support.size(); ++i) {
    const auto v = static_cast<std::size_t>(form.support[i]);
    const bool lit = u.get(i);
    assign.set(v, form.polarity.get(v) == lit);
  }
  return assign;
}

} // namespace

ParityVerdict parity_controllability(const FprmForm& form,
                                     const std::vector<uint32_t>& g_cubes,
                                     const std::vector<uint32_t>& h_cubes,
                                     const ParityAnalysisOptions& opt) {
  ParityVerdict verdict;
  const std::size_t m = form.cubes.size();
  std::size_t budget = opt.max_enumerations;

  // Evaluates the pattern P_T for the activation union U: a cube is 1 iff
  // its literal set is contained in U (the closure effect).
  const auto try_union = [&](const BitVec& u) {
    const auto parity_over = [&](const std::vector<uint32_t>& set) {
      bool p = false;
      for (const uint32_t c : set)
        if (form.cubes[c].is_subset_of(u)) p = !p;
      return p;
    };
    const unsigned idx = (parity_over(g_cubes) ? 2u : 0u) +
                         (parity_over(h_cubes) ? 1u : 0u);
    if ((verdict.achieved & (1u << idx)) == 0) {
      verdict.achieved |= static_cast<uint8_t>(1u << idx);
      verdict.witness[idx] = witness_from_union(form, u);
    }
  };

  const BitVec empty_u(form.support.size());
  try_union(empty_u); // AZ: the paper's Property 1

  // AO.
  {
    BitVec all(form.support.size());
    all.set_all();
    try_union(all);
  }

  // Subsets of cubes by size, smallest first (the singletons are the OC
  // patterns), up to the size cap: every pair is tried before any triple.
  // Stops once all four patterns are achieved or the budget is spent.
  const std::function<void(uint32_t, std::size_t, const BitVec&)> rec =
      [&](uint32_t first, std::size_t size, const BitVec& u) {
        for (uint32_t c = first;
             c + size <= m && budget > 0 && verdict.achieved != 0b1111; ++c) {
          BitVec u2 = u;
          u2 |= form.cubes[c];
          if (size > 1) {
            rec(c + 1, size - 1, u2);
            continue;
          }
          --budget;
          try_union(u2);
        }
      };
  for (std::size_t size = 1; size <= opt.max_subset; ++size)
    rec(0, size, empty_u);
  return verdict;
}

std::vector<ParityVerdict> analyze_tree(const AnnotatedXorTree& tree,
                                        const ParityAnalysisOptions& opt) {
  std::vector<ParityVerdict> out;
  out.reserve(tree.xor_gates.size());
  for (const NodeId x : tree.xor_gates) {
    const auto& fi = tree.net.fanins(x);
    out.push_back(parity_controllability(tree.form, tree.cube_sets[fi[0]],
                                         tree.cube_sets[fi[1]], opt));
  }
  return out;
}

} // namespace rmsyn
