// Priority k-input cut enumeration (k = 4) over the SoA gate network.
//
// A cut of node n is a set of at most 4 nodes ("leaves") such that every
// path from a PI/constant to n passes through a leaf; the function of n over
// the leaves is a 16-bit truth table. Cut sets are built bottom-up in
// topological order by merging fanin cut sets (folding pairwise across
// n-ary fanins, with a capped intermediate frontier), filtered by
// dominance (a cut whose leaves are a subset of another's supersedes it),
// ordered by (leaf count, lexicographic leaves) and truncated to a
// per-node limit — the classic priority-cuts scheme. The trivial cut {n}
// is always kept so fanouts can merge through n itself.
//
// Each merged cut's table is composed as the cut is built: both parts'
// tables are re-expressed over the merged leaf set and combined with the
// gate's AND/OR/XOR, and NAND/NOR/XNOR/NOT complement once after the last
// fanin. Leaves the table does not depend on are deliberately KEPT: they
// are still structurally inside the cone, and the replacement engine
// revalidates cuts by re-walking the cone bounded by the leaves (leaf i
// reads projection kProj4[i]). NPN canonicalization absorbs dummy
// variables.
//
// Everything here is read-only over the network and deterministic: the
// rewrite pass enumerates serially, then evaluates candidates in parallel
// against the frozen cut sets.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "network/network.hpp"

namespace rmsyn {

class ResourceGovernor;

namespace rw {

struct Cut {
  std::array<NodeId, 4> leaves = {Network::kNoNode, Network::kNoNode,
                                  Network::kNoNode, Network::kNoNode};
  uint8_t nleaves = 0;
  uint16_t tt = 0; ///< over the full 4-variable space: leaf i is variable
                   ///< i, variables >= nleaves are don't-cares
                   ///< (constants use nleaves == 0)

  bool same_leaves(const Cut& o) const {
    return nleaves == o.nleaves && leaves == o.leaves;
  }
  /// True when this cut's leaves are a subset of o's (dominance).
  bool subset_of(const Cut& o) const;
};

struct CutOptions {
  int cut_limit = 8; ///< priority cuts kept per node (excl. the trivial cut);
                     ///< folds across n-ary fanins keep max(2*cut_limit, 16)
};

/// Per-node cut sets, indexed by NodeId (empty for nodes outside `order`).
/// `cuts_enumerated`, when given, is incremented once per kept cut. With a
/// governor attached the walk polls once per node and stops early on
/// exhaustion (the caller checks gov->exhausted() and unwinds).
std::vector<std::vector<Cut>> enumerate_cuts(const Network& net,
                                             const std::vector<NodeId>& order,
                                             const CutOptions& opt,
                                             uint64_t* cuts_enumerated = nullptr,
                                             ResourceGovernor* gov = nullptr);

/// Re-derives the truth table of `cut` at `root` on the CURRENT network by
/// walking the cone between root and the cut leaves; the table has the
/// same full 4-variable form as Cut::tt. Returns false (without
/// a table) when the cut is stale: a leaf or the root is dead, the cone
/// escapes past the leaves, or more than 128 nodes are expanded.
bool cut_tt(const Network& net, NodeId root, const Cut& cut, uint16_t* tt);

} // namespace rw
} // namespace rmsyn
