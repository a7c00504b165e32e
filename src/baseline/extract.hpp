// Shared-divisor extraction across the node covers of a SopNetwork — the
// gkx (kernel) and gcx (cube) passes of MIS/SIS, implemented as greedy
// best-divisor loops.
#pragma once

#include "baseline/sop_network.hpp"
#include "util/governor.hpp"

namespace rmsyn {

// Both passes poll `gov` (may be null) per node inside each round; on a
// trip extraction stops at the last completed substitution (any prefix of
// rounds is a valid network).

/// Repeatedly extracts the best-valued common kernel as a new node.
/// Returns the number of nodes created.
int extract_kernels(SopNetwork& sn, ResourceGovernor* gov = nullptr);

/// Repeatedly extracts the best-valued common 2-literal cube as a new node.
/// Returns the number of nodes created.
int extract_cubes(SopNetwork& sn, ResourceGovernor* gov = nullptr);

} // namespace rmsyn
