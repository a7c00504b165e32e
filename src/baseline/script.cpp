#include "baseline/script.hpp"

#include <stdexcept>

#include "util/errors.hpp"

#include "baseline/extract.hpp"
#include "baseline/factor.hpp"
#include "core/redundancy.hpp"
#include "equiv/equiv.hpp"
#include "network/transform.hpp"
#include "obs/trace.hpp"
#include "sop/minimize.hpp"
#include "util/stopwatch.hpp"

namespace rmsyn {

namespace {

/// Rounds of the gkx/gcx extraction loop.
constexpr std::size_t kExtractRounds = 8;
/// The spec is collapsed to two-level SOP (the IWLS'91 PLA shape the paper
/// fed to SIS) unless a cover would exceed this many cubes; it then stays
/// multilevel, like the IWLS multilevel set (my_adder, the i-series, ...).
/// The IWLS two-level benchmarks (t481 ~481 cubes, xor10 512, the
/// arithmetic PLAs) fit; parity-like exponential covers bail out early.
constexpr std::size_t kFlattenCubeCap = 1500;

void simplify_nodes(SopNetwork& sn, ResourceGovernor* gov) {
  for (const int n : sn.topo_nodes()) {
    if (gov != nullptr && !gov->poll()) return; // keep the prefix
    const Cover& c = sn.cover_of(n);
    if (c.size() <= 1) continue;
    sn.set_cover(n, espresso_lite(c));
  }
}

/// SIS-style eliminate: collapse a node into its readers when keeping it
/// does not pay off. The value of a node is the SOP-literal growth its
/// collapse would cause (what keeping it saves); nodes with value <= 0 are
/// collapsed. This is what keeps XOR-chain nodes alive —
/// substituting an XOR cover into an XOR reader doubles the cubes — while
/// wires, buffers and single-use AND/OR fragments are absorbed, exactly
/// like `eliminate` in script.rugged.
void eliminate(SopNetwork& sn, ResourceGovernor* gov) {
  bool changed = true;
  int guard = 0;
  while (changed && guard++ < 64) {
    changed = false;
    const auto fanouts = sn.fanout_counts();
    for (const int n : sn.topo_nodes()) {
      if (gov != nullptr && !gov->poll()) return; // keep the prefix
      const bool is_po = [&] {
        for (const int po : sn.po_vars())
          if (po == n) return true;
        return false;
      }();
      if (is_po) continue;
      if (fanouts[static_cast<std::size_t>(n)] == 0) continue;
      const Cover& c = sn.cover_of(n);
      if (c.size() > 16 || c.nvars() == 0) continue; // keep complements cheap
      const int value = sn.collapse_growth(n);
      if (value <= 0 && sn.collapse_node(n)) {
        changed = true;
        break; // fanout counts and growth values are stale; recompute
      }
    }
  }
}

} // namespace

Network baseline_synthesize(const Network& spec, const BaselineOptions& opt,
                            BaselineReport* report) {
  Stopwatch sw;
  BaselineReport rep;
  ResourceGovernor* gov = opt.governor;
  StageBreakdown* const sb = &rep.stages;
  const auto out_of_budget = [&] { return gov != nullptr && gov->exhausted(); };

  SopNetwork sn = SopNetwork::from_network(decompose2(strash(spec)));

  if (!out_of_budget()) {
    obs::ScopedStage stage(gov, sb, "baseline-flatten");
    SopNetwork flat = sn;
    if (flat.flatten(kFlattenCubeCap)) sn = std::move(flat);
  }

  // sweep; simplify — espresso on every node cover.
  {
    obs::ScopedStage stage(gov, sb, "baseline-simplify");
    simplify_nodes(sn, gov);
  }
  rep.sop_lits_initial = sn.literal_count();

  // eliminate only nodes whose removal is free (value <= 0), as the first
  // pass of script.rugged does; extraction then runs on the
  // flattened-enough network.
  if (!out_of_budget()) {
    obs::ScopedStage stage(gov, sb, "baseline-eliminate");
    eliminate(sn, gov);
    simplify_nodes(sn, gov);
  }

  // gkx/gcx loop.
  if (!out_of_budget()) {
    obs::ScopedStage stage(gov, sb, "baseline-extract");
    for (std::size_t round = 0; round < kExtractRounds && !out_of_budget();
         ++round) {
      int k = 0, c = 0;
      {
        RMSYN_SPAN("extract-kernels");
        k = extract_kernels(sn, gov);
      }
      {
        RMSYN_SPAN("extract-cubes");
        c = extract_cubes(sn, gov);
      }
      rep.nodes_extracted += k + c;
      if (k + c == 0) break;
    }
    simplify_nodes(sn, gov);
  }
  rep.sop_lits_final = sn.literal_count();

  // Factor every node into gates.
  Network net;
  {
    obs::ScopedStage stage(gov, sb, "baseline-factor");
    net = strash(sn.to_network());
  }

  // red_removal: redundant-wire elimination on the gate network. The
  // generic engine is reused with no FPRM forms (random-pattern filtering +
  // exact confirmation); on an AND/OR network the XOR phases are no-ops.
  // When the budget already died, the pass gets a fresh slice only through
  // the caller's ladder (run_flow); here it is simply skipped.
  if (opt.run_redundancy_removal && !out_of_budget()) {
    obs::ScopedStage stage(gov, sb, "baseline-redundancy");
    RedundancyOptions ro;
    ro.observability_pass = false;
    ro.governor = gov;
    net = remove_xor_redundancy(net, {}, ro, nullptr);
  }
  net = strash(net);

  {
    // Always verified against the spec. Undecided is acceptable for a
    // degraded run (every pass prefix is equivalence-preserving and
    // red_removal self-confirms its rewrites); a decided mismatch still
    // throws.
    if (gov != nullptr && gov->exhausted()) (void)gov->grant_fallback();
    obs::ScopedStage stage(gov, sb, "baseline-verify");
    const auto check = check_equivalence(spec, net, 0xC0FFEE, gov);
    if (check.decided && !check.equivalent)
      throw RmsynError(ErrorCode::VerifyMismatch,
                       "baseline_synthesize: result not equivalent: " +
                           check.reason);
  }

  rep.status = (gov != nullptr && gov->trip_kind() != TripKind::None)
                   ? FlowStatus::degraded(gov->trip_stage(),
                                          to_string(gov->trip_kind()),
                                          error_code_for(gov->trip_kind()))
                   : FlowStatus::ok();
  rep.seconds = sw.seconds();
  rep.stats = network_stats(net);
  rep.governor_polls = gov != nullptr ? gov->steps() : 0;
  if (report != nullptr) *report = rep;
  return net;
}

} // namespace rmsyn
