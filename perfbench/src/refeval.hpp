// Reference evaluator owned by the benchmark: decides whether a shipped
// network computes the same outputs as its specification without calling
// any simulator or equivalence checker of the library under test. It reads
// networks only through Network's structural accessors (pis, pos, type,
// fanins) and evaluates the GateType set Const0..Nor itself, 64 patterns
// per machine word.
#pragma once

#include <cstdint>
#include <string>

#include "network/network.hpp"

namespace perfbench {

/// The benchmark's own pattern generator (splitmix64): returns the next
/// 64 random bits and advances `state`.
inline uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Compares every primary output of `spec` and `impl`. Networks with at
/// most 16 PIs are compared on all 2^n input patterns; larger ones on
/// `random_patterns` (rounded up to a multiple of 64) patterns drawn from
/// `seed`. Returns an empty string when all outputs agree, otherwise a
/// one-line description of the first difference.
std::string compare_outputs(const rmsyn::Network& spec,
                            const rmsyn::Network& impl, uint64_t seed,
                            std::size_t random_patterns = 4096);

/// Gates (non-PI, non-constant nodes) reachable from the primary outputs,
/// counted by the same walk the evaluator uses.
std::size_t live_gates(const rmsyn::Network& net);

} // namespace perfbench
