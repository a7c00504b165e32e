// Structural network transforms shared by all flows: constant propagation +
// structural hashing (strash), decomposition into 2-input gates (the paper's
// balanced trees), XOR expansion into AND/OR gates (the paper's cost model
// for standard cells), and dead-node sweeping.
#pragma once

#include "network/network.hpp"

namespace rmsyn {

/// Rebuilds the network with constants propagated, buffers/double-inverters
/// collapsed, fanin duplicates and complement pairs simplified, and
/// structurally identical gates merged. Nand/Nor/Xnor are normalized to
/// Not(And/Or/Xor). The result contains only live nodes.
Network strash(const Network& net);

/// Structural-hashing miter: strashes `a` and then `b` into one network
/// with shared PIs (PI i of both is miter PI i, named after `a`'s). POs
/// 0..a.po_count()-1 are `a`'s outputs, the rest are `b`'s, in order. Equal
/// PO heads mean equal functions; different heads prove nothing. Unlike
/// strash() the result is not swept.
Network strash_miter(const Network& a, const Network& b);

/// Replaces every gate of more than two inputs by a balanced binary tree of
/// 2-input gates (the paper's "balanced binary tree of XOR gates" applies
/// the same shape to all associative gates).
Network decompose2(const Network& net);

/// Replaces each 2-input XOR/XNOR by three 2-input AND/OR gates plus
/// inverters: a ⊕ b = (a + b)·(a·b)'. Input must be 2-input decomposed.
Network expand_xor(const Network& net);

/// Removes nodes not reachable from any PO (PIs are kept).
Network sweep(const Network& net);

/// Returns the same logic with the primary inputs re-listed so that new PI
/// position k is old PI position perm[k]. Gate structure and PO order are
/// unchanged; only the PI enumeration (and therefore the BDD variable order
/// derived from it) changes.
Network permute_pis(const Network& net, const std::vector<std::size_t>& perm);

/// Spectrum-friendly PI permutation (new position k holds old PI order[k]):
/// inputs reaching few POs first, inputs feeding long chains (carry-ins,
/// low-order operand bits) last. With this order the decision-diagram
/// subgraphs of carry-like functions are shared across outputs; the
/// shared-OFDD construction relies on it.
std::vector<std::size_t> spectrum_friendly_pi_order(const Network& spec);

} // namespace rmsyn
