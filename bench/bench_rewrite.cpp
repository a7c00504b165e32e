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
// Usage: bench_rewrite [--out file.json] [--jobs N]
//        (default: BENCH_rewrite.json, 4)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/stats.hpp"
#include "rewrite/rewrite.hpp"
#include "sched/pool.hpp"
#include "util/governor.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Min-of-3 wall-clock of `fn` — the usual defense against a cold first
/// iteration and scheduler noise.
template <typename Fn>
double time_min3(Fn&& fn) {
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

struct Row {
  std::string circuit;
  std::size_t nodes = 0;
  std::size_t lits_before = 0;
  std::size_t lits_after = 0;
  double seconds = 0.0;
  double cuts_per_second = 0.0;
  rmsyn::rw::RewriteStats stats;
};

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
  std::string path = "BENCH_rewrite.json";
  int jobs = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) path = argv[++i];
    else if (arg == "--jobs" && i + 1 < argc) jobs = std::stoi(argv[++i]);
  }

  std::vector<std::string> names = benchmark_names();
  names.push_back("adder64");
  names.push_back("mult16");

  ThreadPool pool(jobs);
  std::vector<Row> rows;
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
                  name.c_str(), jobs);
      continue;
    }

    Row row;
    row.circuit = name;
    row.nodes = spec.node_count();
    row.lits_before = network_stats(spec).lits;
    row.lits_after = network_stats(serial).lits;
    row.stats = st;
    row.seconds = time_min3([&] {
      Network n = spec;
      rw::rewrite_network(n);
    });
    row.cuts_per_second =
        row.seconds > 0
            ? static_cast<double>(st.cuts_enumerated) / row.seconds
            : 0.0;
    if (row.lits_after > row.lits_before) {
      monotone = false;
      std::printf("COST REGRESSION on %s: %zu -> %zu lits\n", name.c_str(),
                  row.lits_before, row.lits_after);
    }
    total_before += row.lits_before;
    total_after += row.lits_after;
    std::printf("%-10s lits %6zu -> %6zu  %3llu repl  %8.4fs  %9.0f cuts/s\n",
                name.c_str(), row.lits_before, row.lits_after,
                static_cast<unsigned long long>(st.replacements), row.seconds,
                row.cuts_per_second);
    std::fflush(stdout);
    rows.push_back(row);
  }

  const bool gate_ok = equivalent && identical && monotone;
  std::printf("total lits %zu -> %zu (saved %zu); decided equivalence %s, "
              "--jobs %d bit-identity %s, monotone cost %s\n",
              total_before, total_after,
              total_before >= total_after ? total_before - total_after : 0,
              equivalent ? "ok" : "FAILED", jobs,
              identical ? "ok" : "FAILED", monotone ? "ok" : "FAILED");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"rewrite\",\n"
               "  \"jobs\": %d,\n"
               "  \"equivalent\": %s,\n"
               "  \"jobs_bit_identical\": %s,\n"
               "  \"monotone_cost\": %s,\n"
               "  \"total_lits_before\": %zu,\n"
               "  \"total_lits_after\": %zu,\n  \"rows\": [\n",
               jobs, equivalent ? "true" : "false",
               identical ? "true" : "false", monotone ? "true" : "false",
               total_before, total_after);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"circuit\": \"%s\", \"nodes\": %zu, \"lits_before\": %zu, "
        "\"lits_after\": %zu, \"replacements\": %llu, \"db_hits\": %llu, "
        "\"cuts_enumerated\": %llu, \"sim_rejects\": %llu, "
        "\"bdd_rejects\": %llu, \"seconds\": %.6f, "
        "\"cuts_per_second\": %.0f}%s\n",
        r.circuit.c_str(), r.nodes, r.lits_before, r.lits_after,
        static_cast<unsigned long long>(r.stats.replacements),
        static_cast<unsigned long long>(r.stats.db_hits),
        static_cast<unsigned long long>(r.stats.cuts_enumerated),
        static_cast<unsigned long long>(r.stats.sim_rejects),
        static_cast<unsigned long long>(r.stats.bdd_rejects), r.seconds,
        r.cuts_per_second, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  return gate_ok ? 0 : 1;
}
