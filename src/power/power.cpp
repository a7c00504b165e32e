#include "power/power.hpp"

#include "util/errors.hpp"

#include <stdexcept>

#include "bdd/bdd.hpp"
#include "equiv/equiv.hpp"
#include "network/simulate.hpp"
#include "sim/sim.hpp"

namespace rmsyn {

/// The exact path gives way to sampling above this many BDD nodes.
constexpr std::size_t kBddNodeLimit = 2'000'000;

PowerReport estimate_power(const Network& net, const PowerOptions& opt) {
  PowerReport rep;
  const auto live = net.live_mask();
  const auto fanouts = net.fanout_counts();

  std::vector<double> prob(net.node_count(), 0.0);
  bool exact_ok = false;
  if (opt.exact) {
    try {
      BddManager mgr(static_cast<int>(net.pi_count()));
      // Sifting keeps wide nets under the node limit; node_bdds pins every
      // node function, so reordering cannot invalidate `f`.
      if (net.pi_count() > 16) mgr.set_auto_reorder(true);
      const auto f = node_bdds(mgr, net);
      if (mgr.node_count() <= kBddNodeLimit) {
        for (NodeId n = 0; n < net.node_count(); ++n)
          if (live[n]) prob[n] = mgr.density(f[n]);
        exact_ok = true;
      }
    } catch (const RmsynError&) {
      throw; // injected faults / invariant violations must not be swallowed
    } catch (const std::runtime_error&) {
      exact_ok = false; // node limit inside the manager
    }
  }
  if (!exact_ok) {
    // Sampled fallback: one cached good-simulation serves every live node's
    // probability read (sim/sim.hpp).
    SimState sim(net, random_patterns(net.pi_count(), opt.sim_patterns,
                                      opt.sim_seed));
    const auto np = static_cast<double>(sim.num_patterns());
    for (NodeId n = 0; n < net.node_count(); ++n)
      if (live[n])
        prob[n] = static_cast<double>(sim.value(n).count()) / np;
    rep.sim = sim.take_stats();
  }
  rep.exact = exact_ok;

  for (NodeId n = 0; n < net.node_count(); ++n) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Const0 || t == GateType::Const1) continue;
    // Inverters/buffers do not add switching nets of their own under the
    // zero-delay model (their output toggles iff the input does); their
    // load is attributed to the driver via fanout.
    if (t == GateType::Buf) continue;
    const double activity = 2.0 * prob[n] * (1.0 - prob[n]);
    const double load = 1.0 + static_cast<double>(fanouts[n]);
    rep.switching_sum += activity;
    rep.total += activity * load;
    ++rep.nets;
  }
  return rep;
}

} // namespace rmsyn
