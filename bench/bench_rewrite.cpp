// Cut-rewriting bench: runs the rewrite pass over every Table-2 circuit
// plus the large parameterized circuits (adder64, mult16), reporting
// literals saved and cut-enumeration throughput, and gates two hard
// properties:
//
//   * serial vs --jobs bit-identity — the pooled phase-B evaluation must
//     reproduce the serial network node-for-node on every circuit;
//   * monotone cost — no circuit's paper literal count may increase.
//
// Every rewritten network is equivalence-checked against its input before
// anything is reported — a fast wrong answer fails the run outright, and so
// does a check that runs out of budget without a verdict.
//
// Emits a machine-readable BENCH_rewrite.json for CI tracking.
//
// Usage: bench_rewrite [--out FILE]   (default: BENCH_rewrite.json)
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "harness.hpp"
#include "network/stats.hpp"
#include "rewrite/rewrite.hpp"
#include "sched/pool.hpp"
#include "util/governor.hpp"

namespace {

bool networks_identical(const rmsyn::Network& a, const rmsyn::Network& b) {
  if (a.node_count() != b.node_count()) return false;
  for (rmsyn::NodeId i = 0; i < a.node_count(); ++i) {
    if (a.is_dead(i) != b.is_dead(i)) return false;
    if (a.is_dead(i)) continue;
    if (a.type(i) != b.type(i)) return false;
    const rmsyn::FaninSpan fa = a.fanins(i), fb = b.fanins(i);
    if (fa.size() != fb.size()) return false;
    for (std::size_t j = 0; j < fa.size(); ++j)
      if (fa[j] != fb[j]) return false;
  }
  return true;
}

} // namespace

int main(int argc, char** argv) {
  using namespace rmsyn;
  const bench::Args args =
      bench::parse_args_or_exit(argc, argv, "BENCH_rewrite.json", false);
  constexpr int kJobs = 4;

  std::vector<std::string> names = benchmark_names();
  names.push_back("adder64");
  names.push_back("mult16");

  ThreadPool pool(kJobs);
  obs::Json rows = obs::Json::array();
  bool equivalent = true, identical = true, monotone = true;
  std::size_t total_before = 0, total_after = 0;
  for (const auto& name : names) {
    const Network spec = make_benchmark(name).spec;

    // Correctness first: rewritten network decided equivalent to the
    // input, and the pooled run bit-identical to the serial one. The check
    // is budgeted; the structural miter proves the output pairs that
    // rewriting left alone without a BDD, so even mult16 (whose product
    // BDD is exponential in any order) must reach a verdict.
    Network serial = spec;
    const rw::RewriteStats st = rw::rewrite_network(serial);
    ResourceLimits elim;
    elim.step_limit = 2'000'000;
    ResourceGovernor egov(elim);
    const EquivResult eq = check_equivalence(spec, serial, 0xC0FFEE, &egov);
    if (!eq.decided || !eq.equivalent) {
      equivalent = false;
      std::printf("%s on %s: %s\n",
                  eq.decided ? "NOT EQUIVALENT" : "UNDECIDED", name.c_str(),
                  eq.reason.c_str());
      continue;
    }
    Network pooled = spec;
    rw::RewriteOptions popt;
    popt.pool = &pool;
    rw::rewrite_network(pooled, popt);
    if (!networks_identical(serial, pooled)) {
      identical = false;
      std::printf("JOBS MISMATCH on %s: --jobs %d differs from serial\n",
                  name.c_str(), kJobs);
      continue;
    }

    const std::size_t lits_before = network_stats(spec).lits;
    const std::size_t lits_after = network_stats(serial).lits;
    const double seconds = bench::sample(3, bench::Warmup::None, [&] {
                             Network n = spec;
                             rw::rewrite_network(n);
                           })[0].min();
    const double cuts_per_second =
        seconds > 0 ? static_cast<double>(st.cuts_enumerated) / seconds : 0.0;
    if (lits_after > lits_before) {
      monotone = false;
      std::printf("COST REGRESSION on %s: %zu -> %zu lits\n", name.c_str(),
                  lits_before, lits_after);
    }
    total_before += lits_before;
    total_after += lits_after;
    std::printf("%-10s lits %6zu -> %6zu  %3llu repl  %8.4fs  %9.0f cuts/s\n",
                name.c_str(), lits_before, lits_after,
                static_cast<unsigned long long>(st.replacements), seconds,
                cuts_per_second);
    std::fflush(stdout);
    rows.push_back(bench::object({{"circuit", name},
                                  {"nodes", spec.node_count()},
                                  {"lits_before", lits_before},
                                  {"lits_after", lits_after},
                                  {"replacements", st.replacements},
                                  {"db_hits", st.db_hits},
                                  {"cuts_enumerated", st.cuts_enumerated},
                                  {"sim_rejects", st.sim_rejects},
                                  {"bdd_rejects", st.bdd_rejects},
                                  {"seconds", seconds},
                                  {"cuts_per_second", cuts_per_second}}));
  }

  std::printf("total lits %zu -> %zu (saved %zu)\n", total_before,
              total_after,
              total_before >= total_after ? total_before - total_after : 0);
  bench::Gates gates;
  gates.check(equivalent, "every rewritten circuit decided equivalent");
  gates.check(identical, "--jobs %d bit-identical to serial", kJobs);
  gates.check(monotone, "no circuit's literal count increased");
  return bench::finish(args,
                       bench::bench_doc("rewrite",
                                        {{"jobs", kJobs},
                                         {"equivalent", equivalent},
                                         {"jobs_bit_identical", identical},
                                         {"monotone_cost", monotone},
                                         {"total_lits_before", total_before},
                                         {"total_lits_after", total_after},
                                         {"rows", rows}}),
                       gates);
}
