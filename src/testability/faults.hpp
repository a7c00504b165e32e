// Single stuck-at fault machinery for the paper's testability claims (§1,
// §6): the synthesized networks are irredundant and the FPRM-derived PI
// pattern sets (AZ, AO, OC, SA1) form a complete single-stuck-at test set —
// no conventional ATPG required.
#pragma once

#include <string>
#include <vector>

#include "network/network.hpp"
#include "network/simulate.hpp"
#include "sim/sim.hpp"

namespace rmsyn {

class ThreadPool; // sched/pool.hpp

struct Fault {
  NodeId node = 0;
  int fanin_index = -1; ///< -1 = output (stem) fault, else that input pin
  bool stuck_value = false;
};

/// All single stuck-at faults on the live cone: stem faults on every gate
/// and PI, pin faults on every gate input (fanout branches).
std::vector<Fault> enumerate_faults(const Network& net);

struct FaultSimResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::vector<Fault> undetected;
  double coverage() const {
    return total == 0 ? 1.0 : static_cast<double>(detected) /
                                   static_cast<double>(total);
  }
};

struct FaultSimOptions {
  /// Split the pattern set into blocks and stop probing a fault at the
  /// first detecting block (classic fault dropping). Off = one block over
  /// the whole set. Detection results are identical either way; dropping
  /// only skips work.
  bool drop_faults = true;
  /// Run chunks of fanout-free regions on this pool (null = serial). Each
  /// worker traces a disjoint region range with its own FaultProber
  /// against shared const block states; every fault belongs to one region
  /// and counters are per-region sums, so results AND counters are
  /// bit-identical to serial.
  ThreadPool* pool = nullptr;
  /// Engine counters accumulated here when non-null.
  SimStats* stats = nullptr;
};

/// Parallel-pattern fault simulation by fanout-free-region tracing
/// (DESIGN.md §10): one good pass per pattern block; per block, each
/// region with pending faults gets local fault masks from the good values
/// and one stem propagation from its root (FaultProber::observe) — with
/// fault dropping across blocks. Detected/undetected sets are identical
/// to fault_simulate_full.
FaultSimResult fault_simulate(const Network& net, const PatternSet& patterns,
                              const FaultSimOptions& opt = {});

/// Reference implementation: re-simulates the whole network once per fault.
/// Kept as the cross-check and benchmark baseline for the incremental
/// engine; use fault_simulate for real work.
FaultSimResult fault_simulate_full(const Network& net,
                                   const PatternSet& patterns);

/// True when the network is single-stuck-at irredundant: every fault is
/// detectable by some input vector (checked exactly with BDDs).
bool is_irredundant(const Network& net);

std::string to_string(const Fault& f, const Network& net);

} // namespace rmsyn
