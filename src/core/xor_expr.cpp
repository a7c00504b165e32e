#include "core/xor_expr.hpp"

#include <algorithm>
#include <cassert>

namespace rmsyn {

LiteralContext::LiteralContext(Network& net, const std::vector<NodeId>& pi_nodes,
                               const std::vector<int>& support,
                               const BitVec& polarity)
    : net_(&net) {
  lit_nodes_.reserve(support.size());
  for (const int v : support) {
    const NodeId pi = pi_nodes[static_cast<std::size_t>(v)];
    lit_nodes_.push_back(polarity.get(static_cast<std::size_t>(v))
                             ? pi
                             : net.add_not(pi));
  }
}

NodeId LiteralContext::build_cube(const BitVec& cube) {
  return build_cube(cube.data(), cube.words());
}

NodeId LiteralContext::build_cube(const uint64_t* cube, std::size_t stride) {
  std::vector<NodeId> leaves;
  for (std::size_t w = 0; w < stride; ++w)
    for (uint64_t m = cube[w]; m != 0; m &= m - 1)
      leaves.push_back(lit_nodes_[w * 64 + static_cast<std::size_t>(__builtin_ctzll(m))]);
  return balanced_gate_tree(*net_, GateType::And, std::move(leaves));
}

NodeId balanced_gate_tree(Network& net, GateType type, std::vector<NodeId> leaves) {
  if (leaves.empty())
    return type == GateType::And ? Network::kConst1 : Network::kConst0;
  while (leaves.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((leaves.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2)
      next.push_back(net.add_gate(type, {leaves[i], leaves[i + 1]}));
    if (leaves.size() % 2 == 1) next.push_back(leaves.back());
    leaves.swap(next);
  }
  return leaves[0];
}

std::size_t group_by_disjoint_support(const uint64_t* cubes, std::size_t count,
                                      std::size_t stride,
                                      std::vector<uint32_t>& group_of) {
  assert(stride > 0);
  const auto meets = [stride](const uint64_t* a, const uint64_t* b) {
    for (std::size_t w = 0; w < stride; ++w)
      if ((a[w] & b[w]) != 0) return true;
    return false;
  };
  // Component supports, pairwise disjoint (so at most one per literal
  // position): each cube absorbs every component it meets.
  std::vector<uint64_t> comps;
  std::vector<uint64_t> merged(stride);
  for (std::size_t i = 0; i < count; ++i) {
    std::copy_n(cubes + i * stride, stride, merged.begin());
    for (std::size_t k = 0; k < comps.size();) {
      if (!meets(comps.data() + k, merged.data())) {
        k += stride;
        continue;
      }
      for (std::size_t w = 0; w < stride; ++w) merged[w] |= comps[k + w];
      // Swap-remove component k; the one moved into slot k is checked next.
      std::copy_n(comps.end() - static_cast<std::ptrdiff_t>(stride), stride,
                  comps.begin() + static_cast<std::ptrdiff_t>(k));
      comps.resize(comps.size() - stride);
    }
    comps.insert(comps.end(), merged.begin(), merged.end());
  }
  // Number the groups by their lowest cube. The constant-1 cube (no
  // literals) meets no component and is a group of its own.
  const std::size_t ncomps = comps.size() / stride;
  constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> comp_group(ncomps, kNone);
  uint32_t groups = 0;
  group_of.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t k = 0;
    while (k < ncomps && !meets(comps.data() + k * stride, cubes + i * stride)) ++k;
    if (k == ncomps) {
      group_of[i] = groups++;
      continue;
    }
    if (comp_group[k] == kNone) comp_group[k] = groups++;
    group_of[i] = comp_group[k];
  }
  return groups;
}

} // namespace rmsyn
