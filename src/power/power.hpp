// Switching-activity power estimation — the SIS `power_estimate` model the
// paper's improve%power column uses: zero-delay, temporally independent
// inputs with signal probability 0.5, switching activity 2·p·(1-p) per net,
// net capacitance proportional to fanout, P ∝ Σ activity·load.
#pragma once

#include "network/network.hpp"
#include "sim/sim.hpp"

namespace rmsyn {

struct PowerOptions {
  /// Use exact BDD signal probabilities; falls back to random-simulation
  /// estimates when the BDDs exceed 2M nodes.
  bool exact = true;
  std::size_t sim_patterns = 16384;
  uint64_t sim_seed = 0x50FE12;
};

struct PowerReport {
  double total = 0.0;              ///< Σ activity·(1+fanout), arbitrary units
  double switching_sum = 0.0;      ///< Σ activity
  std::size_t nets = 0;
  bool exact = false;              ///< true when BDD probabilities were used
  /// Engine counters of the sampled fallback (empty on the exact path).
  SimStats sim;
};

/// Estimates power of the network (any gate mix). The metric is relative:
/// only ratios between two estimates are meaningful, as in the paper's
/// improvement column.
PowerReport estimate_power(const Network& net, const PowerOptions& opt = {});

} // namespace rmsyn
