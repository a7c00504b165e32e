// 64-way bit-parallel simulation. The paper's redundancy-removal procedure
// is driven by simulating small pattern sets (AZ, AO, OC, SA1) — this
// simulator evaluates 64 patterns per word per pass.
#pragma once

#include <vector>

#include "network/network.hpp"
#include "util/bitvec.hpp"

namespace rmsyn {

/// A batch of input patterns: pattern p assigns bit p of `bits[i]` to PI i.
struct PatternSet {
  std::size_t num_patterns = 0;
  std::vector<BitVec> bits; // one BitVec of num_patterns bits per PI

  explicit PatternSet(std::size_t num_pis = 0, std::size_t num_patterns_ = 0)
      : num_patterns(num_patterns_),
        bits(num_pis, BitVec(num_patterns_)) {}

  /// Appends one pattern given as a PI-indexed assignment.
  void append(const BitVec& assignment);
};

class ThreadPool;

/// Simulates all patterns; result[n] holds node n's value for each pattern.
/// With a pool, the pattern words are sharded across workers: each shard
/// runs the full topological pass over its disjoint word range of the
/// pre-allocated value rows, so the result is bit-identical to serial by
/// construction (bitwise gate evaluation is word-local).
std::vector<BitVec> simulate(const Network& net, const PatternSet& patterns,
                             ThreadPool* pool = nullptr);

/// The one full-pass kernel behind simulate() and SimState: evaluates
/// every gate of `order` (a topological order of `net`) into its
/// pre-sized row of `value`, whose PI and constant rows must already hold
/// their values. With a pool the words are sharded as simulate() describes.
/// Complemented gates leave garbage in the unused tail bits of the last
/// word; the caller masks the rows it computed.
void simulate_words(const Network& net, const std::vector<NodeId>& order,
                    std::vector<BitVec>& value, ThreadPool* pool);

/// Simulates `count` uniformly random patterns (seeded).
PatternSet random_patterns(std::size_t num_pis, std::size_t count, uint64_t seed);

/// Word-aligned slice [first_pattern, first_pattern + count) of a pattern
/// set; `first_pattern` must be a multiple of 64. Used to split fault
/// simulation into blocks that detected faults drop out of (sim/sim.hpp).
PatternSet pattern_block(const PatternSet& ps, std::size_t first_pattern,
                         std::size_t count);

} // namespace rmsyn
