#include "core/synth.hpp"

#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/errors.hpp"

#include "core/factor_cubes.hpp"
#include "core/factor_ofdd.hpp"
#include "core/resub.hpp"
#include "equiv/equiv.hpp"
#include "network/transform.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace rmsyn {

namespace {

struct Candidate {
  Network net;
  /// Per-output cube lists; an output listed in `pending` has an empty
  /// placeholder until the candidate wins.
  std::vector<FprmForm> forms;
  /// Outputs factored from their OFDD, whose cube lists only the winner
  /// enumerates (after selection, for Section 4 and the report). The roots
  /// are ref()'d in the candidate's manager, which they never outlive.
  std::vector<std::pair<std::size_t, Ofdd>> pending;
  std::vector<std::size_t> cube_counts;
  std::size_t via_cubes = 0;
  std::size_t via_ofdd = 0;
  std::size_t cost = 0; // gates2 after resub
};

std::vector<NodeId> add_spec_pis(Network& out, const Network& spec) {
  std::vector<NodeId> pi_nodes;
  pi_nodes.reserve(spec.pi_count());
  for (std::size_t i = 0; i < spec.pi_count(); ++i)
    pi_nodes.push_back(out.add_pi(spec.name(spec.pis()[i])));
  return pi_nodes;
}

/// Saturating double→size_t for cube counts: sat_count can legitimately
/// exceed 2^64 on wide supports, and casting a non-finite double is UB.
std::size_t saturating_count(double d) {
  constexpr auto kMax = std::numeric_limits<std::size_t>::max();
  if (!(d >= 0.0)) return kMax; // negative or NaN: treat as unknown/huge
  if (d >= static_cast<double>(kMax)) return kMax;
  return static_cast<std::size_t>(d);
}

/// Method 1 factors an output's cube list only while it holds at most this
/// many cubes per node of the output's OFDD. Past it, rules (a)-(e) only
/// rebuild sharing the diagram already holds, while factor_ofdd emits at
/// most one AND and one XOR per node (DESIGN.md §3.2).
constexpr std::size_t kMaxCubesPerOfddNode = 64;

/// Method 1 (cube factoring), per-output polarity search. Outputs whose
/// cube list exceeds the cap, or kMaxCubesPerOfddNode cubes per OFDD node,
/// fall back to a per-output OFDD construction.
/// `fixed_polarity` skips the search (degradation-ladder rungs). Returns
/// nullopt when the governor tripped mid-build: a half-built candidate
/// must never compete on cost.
std::optional<Candidate> build_cubes_candidate(const Network& spec,
                                               BddManager& mgr,
                                               const std::vector<BddRef>& spec_fn,
                                               const SynthOptions& opt,
                                               const BitVec* fixed_polarity,
                                               StageBreakdown* sb) {
  ResourceGovernor* gov = mgr.governor();
  Candidate cand;
  const std::vector<NodeId> pi_nodes = add_spec_pis(cand.net, spec);
  for (std::size_t j = 0; j < spec.po_count(); ++j) {
    const BddRef f = spec_fn[j];
    if (BddManager::is_invalid(f)) return std::nullopt;
    if (f == mgr.bdd_false() || f == mgr.bdd_true()) {
      cand.net.add_po(cand.net.constant(f == mgr.bdd_true()), spec.po_name(j));
      cand.forms.emplace_back();
      cand.cube_counts.push_back(f == mgr.bdd_true() ? 1 : 0);
      continue;
    }
    BitVec polarity;
    {
      obs::ScopedStage stage(gov, sb, "polarity-search");
      polarity = fixed_polarity != nullptr ? *fixed_polarity
                                           : best_polarity(mgr, f, opt.polarity);
    }
    Ofdd ofdd;
    std::size_t cubes = 0;
    {
      obs::ScopedStage stage(gov, sb, "ofdd-build");
      ofdd = build_ofdd(mgr, f, polarity);
      if (BddManager::is_invalid(ofdd.root)) return std::nullopt;
      cubes = saturating_count(fprm_cube_count(mgr, ofdd.root, ofdd.support));
    }
    cand.cube_counts.push_back(cubes);
    // A cube list over the enumeration cap, or far larger than its OFDD,
    // goes through the exact, structural OFDD factoring and is enumerated
    // only if this candidate wins. The reported cube list is the same
    // either way (one over the cap is a prefix).
    const bool enumerate = cubes <= opt.cube_limit &&
                           cubes <= kMaxCubesPerOfddNode * mgr.size(ofdd.root);
    bool via_ofdd = !enumerate;
    FprmForm form;
    if (enumerate) {
      obs::ScopedStage stage(gov, sb, "fprm-extract");
      form = extract_fprm(mgr, ofdd, static_cast<int>(spec.pi_count()),
                          opt.cube_limit);
      via_ofdd = form.truncated; // the governor cut the enumeration short
    }
    NodeId root;
    {
      obs::ScopedStage stage(gov, sb, "factor");
      if (via_ofdd) {
        RMSYN_SPAN("factor-ofdd");
        root = factor_ofdd(cand.net, pi_nodes, mgr, ofdd);
        ++cand.via_ofdd;
      } else {
        RMSYN_SPAN("factor-cubes");
        root = factor_cubes(cand.net, pi_nodes, form);
        ++cand.via_cubes;
      }
    }
    cand.net.add_po(root, spec.po_name(j));
    if (!enumerate) {
      mgr.ref(ofdd.root);
      cand.pending.emplace_back(j, std::move(ofdd));
    }
    cand.forms.push_back(std::move(form));
    // This output's polarity-search spectra are dead; the spec functions
    // stay pinned by output_bdds, pending OFDDs by their ref.
    mgr.gc();
  }
  return cand;
}

/// Method 2 (OFDD construction) with one global polarity vector and a
/// construction memo shared across outputs, so common spectrum subgraphs —
/// carry chains in particular — become shared subnetworks.
std::optional<Candidate> build_ofdd_candidate(const Network& spec,
                                              BddManager& mgr,
                                              const std::vector<BddRef>& spec_fn,
                                              const SynthOptions& opt,
                                              const BitVec* fixed_polarity,
                                              StageBreakdown* sb) {
  ResourceGovernor* gov = mgr.governor();
  Candidate cand;
  const std::vector<NodeId> pi_nodes = add_spec_pis(cand.net, spec);
  BitVec polarity;
  {
    obs::ScopedStage stage(gov, sb, "polarity-search");
    polarity = fixed_polarity != nullptr
                   ? *fixed_polarity
                   : best_polarity_multi(mgr, spec_fn, opt.polarity);
  }

  std::vector<int> all_vars;
  all_vars.reserve(spec.pi_count());
  for (int v = 0; v < static_cast<int>(spec.pi_count()); ++v)
    all_vars.push_back(v);

  SharedOfddBuilder builder(cand.net, pi_nodes, mgr, polarity);
  for (std::size_t j = 0; j < spec.po_count(); ++j) {
    const BddRef f = spec_fn[j];
    if (BddManager::is_invalid(f)) return std::nullopt;
    if (f == mgr.bdd_false() || f == mgr.bdd_true()) {
      cand.net.add_po(cand.net.constant(f == mgr.bdd_true()), spec.po_name(j));
      cand.forms.emplace_back();
      cand.cube_counts.push_back(f == mgr.bdd_true() ? 1 : 0);
      continue;
    }
    BddRef full_spec;
    {
      obs::ScopedStage stage(gov, sb, "ofdd-build");
      full_spec = rm_spectrum(mgr, f, all_vars, polarity);
    }
    if (BddManager::is_invalid(full_spec)) return std::nullopt;
    {
      obs::ScopedStage stage(gov, sb, "factor");
      RMSYN_SPAN("factor-ofdd");
      cand.net.add_po(builder.build(full_spec), spec.po_name(j));
    }
    ++cand.via_ofdd;

    // The support-restricted OFDD gives the reported cube count and, if
    // this candidate wins, the cube list Section 4 reads.
    obs::ScopedStage stage(gov, sb, "ofdd-build");
    Ofdd ofdd = build_ofdd(mgr, f, polarity);
    if (BddManager::is_invalid(ofdd.root)) return std::nullopt;
    cand.cube_counts.push_back(
        saturating_count(fprm_cube_count(mgr, ofdd.root, ofdd.support)));
    cand.forms.emplace_back();
    mgr.ref(ofdd.root);
    cand.pending.emplace_back(j, std::move(ofdd));
  }
  return cand;
}

/// Degradation-ladder rungs, cheapest-last. Each rung is attempted under a
/// fresh budget slice (ResourceGovernor::grant_fallback); the first rung
/// that completes a candidate wins.
enum class Rung {
  Full,          ///< the paper's flow: polarity search, both methods, both orders
  FixedPolarity, ///< skip the search: PPRM (all-positive), natural order only
  OfddOnly,      ///< Method 2 only, PPRM, natural order, no resub
};

} // namespace

Network synthesize(const Network& spec, const SynthOptions& opt,
                   SynthReport* report) {
  Stopwatch sw;
  SynthReport rep;
  ResourceGovernor* gov = opt.governor;
  StageBreakdown* const sb = &rep.stages;

  // Candidate PI orders: the spec's natural order plus the reach heuristic.
  std::vector<std::vector<std::size_t>> orders;
  {
    std::vector<std::size_t> identity(spec.pi_count());
    for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    orders.push_back(identity);
    if (opt.try_reach_order) {
      if (auto h = spectrum_friendly_pi_order(spec); h != identity)
        orders.push_back(std::move(h));
    }
  }

  struct Best {
    Candidate cand;
    std::vector<std::size_t> perm;
    /// The manager the candidate was built in: its pending OFDDs live there.
    std::unique_ptr<BddManager> mgr;
    bool valid = false;
  } best;

  // Runs one ladder rung; fills `best` with the cheapest completed
  // candidate (if any survives the budget).
  const auto run_rung = [&](Rung rung) {
    BitVec pprm(spec.pi_count());
    pprm.set_all(); // all-positive polarity
    const BitVec* fixed = rung == Rung::Full ? nullptr : &pprm;
    const std::size_t num_orders = rung == Rung::Full ? orders.size() : 1;

    for (std::size_t oi = 0; oi < num_orders; ++oi) {
      if (gov != nullptr && gov->exhausted()) break;
      const auto& perm = orders[oi];
      const bool identity = oi == 0;
      const Network spec_p = identity ? spec : permute_pis(spec, perm);
      auto owned_mgr =
          std::make_unique<BddManager>(static_cast<int>(spec_p.pi_count()));
      BddManager& mgr = *owned_mgr;
      mgr.set_governor(gov);
      std::vector<BddRef> spec_fn;
      {
        obs::ScopedStage stage(gov, sb, "spec-bdd");
        spec_fn = output_bdds(mgr, spec_p);
      }
      bool fn_ok = true;
      for (const BddRef f : spec_fn)
        if (BddManager::is_invalid(f)) fn_ok = false;
      if (!fn_ok) {
        rep.bdd.accumulate(mgr.stats());
        continue;
      }

      // Section 3: build the factored candidates and keep the cheapest
      // (the paper: "the results are comparable but the second method has
      // better results on a few more test cases").
      std::vector<std::optional<Candidate>> cands;
      if (rung != Rung::OfddOnly &&
          (opt.method == FactorMethod::Cubes || opt.method == FactorMethod::Best))
        cands.push_back(
            build_cubes_candidate(spec_p, mgr, spec_fn, opt, fixed, sb));
      if (rung == Rung::OfddOnly || opt.method == FactorMethod::Ofdd ||
          opt.method == FactorMethod::Best)
        cands.push_back(
            build_ofdd_candidate(spec_p, mgr, spec_fn, opt, fixed, sb));

      bool won = false;
      for (auto& oc : cands) {
        if (!oc.has_value()) continue; // tripped mid-build: discard
        Candidate& c = *oc;
        if (opt.run_resub && rung != Rung::OfddOnly) {
          obs::ScopedStage stage(gov, sb, "resub");
          ResubOptions ro;
          ro.governor = gov;
          ro.sim_stats = &rep.sim;
          c.net = resub_merge(c.net, ro);
        } else {
          c.net = strash(c.net);
        }
        c.cost = network_stats(c.net).gates2;
        if (!best.valid || c.cost < best.cand.cost) {
          best.cand = std::move(c);
          best.perm = perm;
          best.valid = true;
          won = true;
        }
      }
      rep.bdd.accumulate(mgr.stats());
      if (won) best.mgr = std::move(owned_mgr);
    }
  };

  // Walk the ladder until a rung completes. Each descent re-arms the
  // budget; a rung that completed nothing under a *fresh* slice hands over
  // to the next, cheaper rung.
  constexpr Rung kLadder[] = {Rung::Full, Rung::FixedPolarity, Rung::OfddOnly};
  // Ensures a live budget slice before a phase that still has work to do.
  // Returns false when the ladder allowance is spent.
  const auto regain = [&]() -> bool {
    if (gov == nullptr || !gov->exhausted()) return true;
    return gov->grant_fallback();
  };
  for (const Rung rung : kLadder) {
    if (!regain()) break;
    run_rung(rung);
    if (best.valid) break;
    ++rep.ladder_descents;
    if (gov == nullptr) break; // ungoverned builds cannot fail; don't loop
  }

  const bool tripped = gov != nullptr && gov->trip_kind() != TripKind::None;

  if (!best.valid) {
    // Every rung died inside the budget: hand back the specification
    // itself (trivially equivalent) and report failure.
    Network out = strash(spec);
    rep.status = FlowStatus::failed(
        tripped ? gov->trip_stage() : "synthesis",
        tripped ? std::string(to_string(gov->trip_kind())) + ": " +
                      gov->trip_reason()
                : "no candidate completed",
        tripped ? error_code_for(gov->trip_kind()) : ErrorCode::Internal);
    rep.seconds = sw.seconds();
    rep.stats = network_stats(out);
    rep.governor_polls = gov != nullptr ? gov->steps() : 0;
    if (report != nullptr) *report = std::move(rep);
    return out;
  }

  Candidate& chosen = best.cand;
  Network out = std::move(chosen.net);
  rep.fprm_cube_counts = std::move(chosen.cube_counts);
  rep.outputs_via_cubes = chosen.via_cubes;
  rep.outputs_via_ofdd = chosen.via_ofdd;

  // The winner's cube lists its factoring did not need, enumerated once for
  // Section 4 and the report. A trip leaves a truncated prefix: the pattern
  // sets weaken, the network stays correct.
  if (!chosen.pending.empty()) {
    (void)regain();
    obs::ScopedStage stage(gov, sb, "fprm-extract");
    for (const auto& [j, ofdd] : chosen.pending)
      chosen.forms[j] = extract_fprm(*best.mgr, ofdd,
                                     static_cast<int>(spec.pi_count()),
                                     opt.cube_limit);
  }
  best.mgr.reset();

  // Section 4: redundancy removal (still in the permuted variable space —
  // the FPRM forms refer to permuted PI indices). Skipped when the ladder
  // allowance is spent; the pass is optional for correctness.
  if (opt.run_redundancy_removal && regain()) {
    obs::ScopedStage stage(gov, sb, "redundancy");
    RedundancyOptions rdo = opt.redundancy;
    rdo.governor = gov;
    out = remove_xor_redundancy(out, chosen.forms, rdo, &rep.redundancy);
    rep.sim.accumulate(rep.redundancy.sim);
  }
  out = strash(out);

  // Restore the spec's PI order.
  const bool permuted = best.perm != orders[0];
  if (permuted) {
    std::vector<std::size_t> inverse(best.perm.size());
    for (std::size_t k = 0; k < best.perm.size(); ++k)
      inverse[best.perm[k]] = k;
    out = permute_pis(out, inverse);
    // Remap the reported forms back to original variable ids, keeping the
    // cube masks aligned with the (re-sorted) support positions.
    for (auto& form : chosen.forms) {
      if (form.polarity.size() == 0) continue; // constant output: no form
      std::vector<int> new_ids(form.support.size());
      for (std::size_t i = 0; i < form.support.size(); ++i)
        new_ids[i] = static_cast<int>(
            best.perm[static_cast<std::size_t>(form.support[i])]);
      std::vector<std::size_t> by_id(form.support.size());
      for (std::size_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
      std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
        return new_ids[a] < new_ids[b];
      });
      std::vector<int> sorted_ids(form.support.size());
      std::vector<std::size_t> new_pos(form.support.size());
      for (std::size_t r = 0; r < by_id.size(); ++r) {
        sorted_ids[r] = new_ids[by_id[r]];
        new_pos[by_id[r]] = r;
      }
      BitVec remapped(form.support.size());
      for (auto& cube : form.cubes) {
        remapped.clear_all();
        for (std::size_t i = cube.first_set(); i != BitVec::npos;
             i = cube.next_set(i + 1))
          remapped.set(new_pos[i]);
        std::swap(cube, remapped);
      }
      form.support = std::move(sorted_ids);
      BitVec pol(form.polarity.size());
      for (std::size_t k = 0; k < best.perm.size(); ++k)
        pol.set(best.perm[k], form.polarity.get(k));
      form.polarity = pol;
    }
  }
  rep.forms = std::move(chosen.forms);

  // Optional post-pass: DAG-aware cut rewriting against the NPN database
  // (DESIGN.md §13). Runs after the PI order is restored so the pass sees
  // the final network. Best-of pick: every replacement is individually
  // verified inside the pass, but we still only keep the rewritten network
  // when it strictly improves the paper cost, so the option can never
  // worsen a circuit. Skipped when the ladder allowance is spent.
  if (opt.run_rewrite && regain()) {
    obs::ScopedStage stage(gov, sb, "rewrite");
    rw::RewriteOptions rwo = opt.rewrite;
    if (rwo.governor == nullptr) rwo.governor = gov;
    Network trial = out;
    rw::RewriteStats rst = rw::rewrite_network(trial, rwo, &rep.sim);
    const NetworkStats before = network_stats(out);
    const NetworkStats after = network_stats(trial);
    if (after.lits < before.lits ||
        (after.lits == before.lits && after.num_nodes < before.num_nodes)) {
      out = std::move(trial);
    } else {
      // Original kept: report the attempt with zero realized gain.
      rst.lits_after = rst.lits_before;
      rst.gain_lits = 0;
    }
    rep.rewrite = rst;
  }

  {
    // The result is always verified against the spec (the paper runs SIS
    // `verify` on every circuit). Give the verifier a fresh slice when the
    // budget already died: an undecided internal check on a degraded result
    // is acceptable, but we should at least try. Real mismatches still
    // throw — degradation never excuses a wrong network.
    (void)regain();
    obs::ScopedStage stage(gov, sb, "verify");
    const auto check = check_equivalence(spec, out, 0xC0FFEE, gov);
    if (check.decided && !check.equivalent)
      throw RmsynError(ErrorCode::VerifyMismatch,
                       "synthesize: result not equivalent to spec: " +
                           check.reason);
  }

  rep.status = (gov != nullptr && gov->trip_kind() != TripKind::None)
                   ? FlowStatus::degraded(gov->trip_stage(),
                                          to_string(gov->trip_kind()),
                                          error_code_for(gov->trip_kind()))
                   : FlowStatus::ok();
  rep.seconds = sw.seconds();
  rep.stats = network_stats(out);
  rep.governor_polls = gov != nullptr ? gov->steps() : 0;
  if (report != nullptr) *report = std::move(rep);
  return out;
}

} // namespace rmsyn
