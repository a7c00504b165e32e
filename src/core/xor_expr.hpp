// Shared helpers for the two algebraic factorization methods of Section 3:
// literal materialization under a polarity vector, cube AND-trees, and the
// balanced binary XOR trees the paper joins subnetworks with.
#pragma once

#include <vector>

#include "fdd/fprm.hpp"
#include "network/network.hpp"
#include "util/bitvec.hpp"

namespace rmsyn {

/// Binds an FPRM form's literal space to nodes of a network under
/// construction: position i corresponds to variable support[i] with the
/// form's fixed polarity (a negative-polarity literal is an inverter on the
/// PI, which the paper's cost metric treats as free).
class LiteralContext {
public:
  /// `pi_nodes[v]` must be the PI node of global variable v.
  LiteralContext(Network& net, const std::vector<NodeId>& pi_nodes,
                 const std::vector<int>& support, const BitVec& polarity);

  Network& net() { return *net_; }
  std::size_t width() const { return lit_nodes_.size(); }

  /// Node computing the literal at support position i.
  NodeId literal(std::size_t i) const { return lit_nodes_[i]; }

  /// AND of the cube's literals as a balanced tree; the empty cube is
  /// constant 1.
  NodeId build_cube(const BitVec& cube);
  /// Same, for a cube stored as `stride` raw mask words.
  NodeId build_cube(const uint64_t* cube, std::size_t stride);

private:
  Network* net_;
  std::vector<NodeId> lit_nodes_;
};

/// Balanced binary tree of `type` gates over `leaves`; returns the root.
/// An empty leaf list yields the neutral element (0 for XOR/OR, 1 for AND).
NodeId balanced_gate_tree(Network& net, GateType type, std::vector<NodeId> leaves);

/// Partitions cubes into groups whose supports are connected (step 2 of
/// the cube method: every two groups have disjoint supports). The `count`
/// cubes are stored back to back, `stride` mask words each. Writes each
/// cube's group to `group_of`, numbering groups in order of their lowest
/// cube, and returns the number of groups.
std::size_t group_by_disjoint_support(const uint64_t* cubes, std::size_t count,
                                      std::size_t stride,
                                      std::vector<uint32_t>& group_of);

} // namespace rmsyn
