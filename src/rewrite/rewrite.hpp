// DAG-aware cut rewriting against the NPN rewrite database (DESIGN.md §13).
//
// Each pass over the network: (A) enumerate priority 4-cuts serially;
// (B) evaluate every candidate root in parallel over the FROZEN network —
// canonicalize each cut's function, look it up in the database, and score
// the best replacement by true gain (MFFC cost that dies minus new
// structure cost after structural sharing with existing nodes); (C) apply
// winners serially in topological order, re-validating each candidate
// against the current network, with a verify-then-commit protocol: exact
// 16-row truth-table pre-check, commit through rewrite_gate, incremental
// simulation signatures against the pass-start PO baseline, a local BDD
// check of the committed cone, and a structural revert on any mismatch.
//
// Determinism: phase B is a pure function per root of the frozen network
// (per-slot NPN caches only memoize), results are reduced in root index
// order, so `--jobs N` is bit-identical to serial. Governor polls run once
// per node/candidate; a trip unwinds the pass at the next boundary and
// leaves the network valid and equivalent (every already-applied
// replacement was individually verified).
#pragma once

#include <cstdint>
#include <string>

#include "util/stat_fields.hpp"

namespace rmsyn {

class Network;
class ThreadPool;
class ResourceGovernor;
struct SimStats;

namespace rw {

struct RewriteOptions {
  /// Priority cuts kept per node (excluding the trivial cut).
  int cut_limit = 8;
  /// Passes over the network; a pass with zero replacements stops early.
  int max_passes = 2;
  /// Random patterns for the incremental-simulation signature check.
  int sim_patterns = 256;
  uint64_t sim_seed = 0x5EEDC0DE;
  /// Explicit database file; empty = $RMSYN_REWRITE_DB, then the build-time
  /// data directory, then in-process generation (RewriteDb::instance()).
  std::string db_path;
  /// Candidate evaluation fans out over this pool (null = serial).
  ThreadPool* pool = nullptr;
  /// Budget; polled once per node / candidate. Null = unbudgeted.
  ResourceGovernor* governor = nullptr;
};

/// Counters surfaced as the rewrite.* metrics group on SynthReport/FlowRow;
/// the Counter fields also travel in the row JSON.
struct RewriteStats {
  uint64_t passes = 0;
  uint64_t roots = 0;            ///< candidate root nodes considered
  uint64_t cuts_enumerated = 0;  ///< cuts kept across all enumerations
  uint64_t db_hits = 0;          ///< cut functions found in the database
  uint64_t candidates = 0;       ///< positive-gain replacements planned
  uint64_t stale_skips = 0;      ///< phase-C candidates invalidated by earlier commits
  uint64_t replacements = 0;     ///< replacements committed and verified
  uint64_t sim_rejects = 0;      ///< reverted by the simulation signature check
  uint64_t bdd_rejects = 0;      ///< reverted by the local BDD check
  uint64_t lits_before = 0;      ///< paper literals entering the first pass
  uint64_t lits_after = 0;       ///< paper literals after the last pass
  uint64_t gain_lits = 0;        ///< lits_before - lits_after (0 if negative)
  double cuts_seconds = 0.0;     ///< phase A wall time (cut enumeration)
  double eval_seconds = 0.0;     ///< phase B wall time (parallel evaluation)
  double apply_seconds = 0.0;    ///< phase C wall time (verify-then-commit)

  void accumulate(const RewriteStats& o) { stat_fields::accumulate(*this, o); }
  bool empty() const { return stat_fields::empty(*this); }

  /// Field table (util/stat_fields.hpp).
  template <class V>
  static void fields(V&& v) {
    v("passes", &RewriteStats::passes, StatKind::Counter);
    v("roots", &RewriteStats::roots, StatKind::Counter);
    v("cuts_enumerated", &RewriteStats::cuts_enumerated, StatKind::Counter);
    v("db_hits", &RewriteStats::db_hits, StatKind::Counter);
    v("candidates", &RewriteStats::candidates, StatKind::Counter);
    v("stale_skips", &RewriteStats::stale_skips, StatKind::Counter);
    v("replacements", &RewriteStats::replacements, StatKind::Counter);
    v("sim_rejects", &RewriteStats::sim_rejects, StatKind::Counter);
    v("bdd_rejects", &RewriteStats::bdd_rejects, StatKind::Counter);
    v("lits_before", &RewriteStats::lits_before, StatKind::Counter);
    v("lits_after", &RewriteStats::lits_after, StatKind::Counter);
    v("gain_lits", &RewriteStats::gain_lits, StatKind::Counter);
    v("cuts_seconds", &RewriteStats::cuts_seconds, StatKind::PhaseSeconds);
    v("eval_seconds", &RewriteStats::eval_seconds, StatKind::PhaseSeconds);
    v("apply_seconds", &RewriteStats::apply_seconds, StatKind::PhaseSeconds);
  }
};

/// Runs up to opt.max_passes rewriting passes in place. PIs, POs and their
/// order are untouched (roots are rewritten in place, never re-targeted).
/// `sim_out`, when given, accumulates the signature checker's SimStats.
RewriteStats rewrite_network(Network& net, const RewriteOptions& opt = {},
                             SimStats* sim_out = nullptr);

} // namespace rw
} // namespace rmsyn
