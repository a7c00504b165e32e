// Crash-safe batch execution (DESIGN.md §12): checkpoint journal
// round-trips, torn-tail tolerance, kill-and-resume determinism, retry
// with escalated budgets, journal-write fault containment, and the
// AIGER truncation sweep that the IO hardening must survive.
#include "sched/batch.hpp"
#include "sched/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "network/io.hpp"
#include "util/errors.hpp"
#include "util/faultplan.hpp"

namespace rmsyn {
namespace {

std::string temp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "rmsyn_" + name;
  std::remove(p.c_str()); // journals append: stale files would pollute
  return p;
}

/// Fast flow options for the batch tests: mapping and power add nothing to
/// the journal/retry logic under test.
FlowOptions fast_options() {
  FlowOptions opt;
  opt.run_mapping = false;
  opt.run_power = false;
  return opt;
}

/// Row serialization with wall-clock and telemetry columns zeroed — the
/// fields the determinism contract excludes (and the journal does not
/// carry for BddStats/SimStats).
std::string canon(FlowRow row) {
  row.base_seconds = 0.0;
  row.ours_seconds = 0.0;
  row.row_seconds = 0.0;
  row.ours_polls = 0;
  row.base_polls = 0;
  row.stages = StageBreakdown{};
  row.bdd = BddStats{};
  row.sim = SimStats{};
  return flow_row_json(row).dump();
}

std::vector<Benchmark> adder_manifest(int count) {
  std::vector<Benchmark> benches;
  for (int n = 2; n < 2 + count; ++n)
    benches.push_back(make_benchmark("adder" + std::to_string(n)));
  return benches;
}

FlowRow sample_row(const std::string& circuit) {
  FlowRow row;
  row.circuit = circuit;
  row.num_inputs = 5;
  row.num_outputs = 3;
  row.arithmetic = true;
  row.exact_benchmark = true;
  row.base_lits = 92;
  row.ours_lits = 62;
  row.base_gates = 47;
  row.ours_gates = 24;
  row.base_map_lits = 91;
  row.ours_map_lits = 47;
  row.base_power = 1.5;
  row.ours_power = 1.0;
  row.ladder_descents = 1;
  row.attempts = 2;
  row.ours_status = FlowStatus::degraded("polarity-search", "Deadline",
                                         ErrorCode::BudgetDeadline);
  return row;
}

TEST(Journal, AppendReadRoundTrip) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  {
    BatchJournal j;
    ASSERT_TRUE(j.open(path));
    ASSERT_TRUE(j.append("rd53", 0x0123456789abcdefull, 0xfedcba9876543210ull,
                         sample_row("rd53")));
    ASSERT_TRUE(j.append("z4ml", 42, 7, sample_row("z4ml")));
  }
  const JournalContents jc = read_journal(path);
  EXPECT_EQ(jc.skipped_lines, 0u);
  ASSERT_EQ(jc.records.size(), 2u);
  const JournalRecord& rec = jc.records[0];
  EXPECT_EQ(rec.circuit, "rd53");
  EXPECT_EQ(rec.input_digest, 0x0123456789abcdefull);
  EXPECT_EQ(rec.options_digest, 0xfedcba9876543210ull);
  EXPECT_EQ(rec.status, "degraded");
  EXPECT_EQ(canon(rec.row), canon(sample_row("rd53")));
  EXPECT_EQ(rec.row.attempts, 2);
  EXPECT_EQ(rec.row.ours_status.code, ErrorCode::BudgetDeadline);
  EXPECT_EQ(jc.records[1].circuit, "z4ml");
  std::remove(path.c_str());
}

TEST(Journal, TornTailAndGarbageLinesAreSkippedNotFatal) {
  const std::string path = temp_path("journal_torn.jsonl");
  {
    BatchJournal j;
    ASSERT_TRUE(j.open(path));
    ASSERT_TRUE(j.append("rd53", 1, 2, sample_row("rd53")));
    ASSERT_TRUE(j.append("z4ml", 3, 4, sample_row("z4ml")));
  }
  // Tear the last record mid-line, as a SIGKILL during the write would.
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 40);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "this is not json\n"            // garbage line
      << R"({"v":1,"circuit":"x"})" "\n" // valid JSON, missing fields
      << bytes;                          // record 1 intact, record 2 torn
  out.close();

  const JournalContents jc = read_journal(path);
  ASSERT_EQ(jc.records.size(), 1u);
  EXPECT_EQ(jc.records[0].circuit, "rd53");
  EXPECT_EQ(jc.skipped_lines, 3u);
  std::remove(path.c_str());
}

TEST(Journal, MissingFileThrowsParseError) {
  try {
    read_journal(temp_path("journal_missing.jsonl"));
    FAIL() << "expected RmsynError";
  } catch (const RmsynError& e) {
    EXPECT_EQ(e.code(), ErrorCode::ParseError);
  }
}

TEST(Journal, OptionsDigestTracksResultAffectingKnobs) {
  const FlowOptions base = fast_options();
  using Tweak = void (*)(FlowOptions&);
  for (const Tweak tweak : std::initializer_list<Tweak>{
           [](FlowOptions& o) { o.synth.cube_limit += 1; },
           [](FlowOptions& o) { o.synth.run_rewrite = true; },
           [](FlowOptions& o) { o.synth.rewrite.cut_limit += 1; },
           [](FlowOptions& o) { o.synth.rewrite.max_passes += 1; },
           [](FlowOptions& o) { o.synth.rewrite.sim_patterns += 64; },
           [](FlowOptions& o) { o.synth.rewrite.sim_seed += 1; },
           [](FlowOptions& o) { o.synth.rewrite.db_path = "db.txt"; }}) {
    FlowOptions changed = base;
    tweak(changed);
    EXPECT_NE(journal_options_digest(base), journal_options_digest(changed));
  }
  // Wall-clock-only knobs are deliberately excluded.
  FlowOptions same = base;
  EXPECT_EQ(journal_options_digest(base), journal_options_digest(same));
}

TEST(Journal, InputDigestTracksTheSpecNetwork) {
  const Benchmark a = make_benchmark("adder2");
  const Benchmark b = make_benchmark("adder3");
  EXPECT_NE(journal_input_digest(a), journal_input_digest(b));
  EXPECT_EQ(journal_input_digest(a),
            journal_input_digest(make_benchmark("adder2")));
}

TEST(Journal, InputDigestHandlesWideXorSpecs) {
  // The parity and xor10 specs carry XOR gates with arity > 2, which
  // write_blif rejects — the digest must hash the structure directly
  // rather than round-tripping through BLIF (this used to throw).
  uint64_t parity = 0;
  EXPECT_NO_THROW(parity = journal_input_digest(make_benchmark("parity")));
  uint64_t xor10 = 0;
  EXPECT_NO_THROW(xor10 = journal_input_digest(make_benchmark("xor10")));
  EXPECT_NE(parity, xor10);
}

TEST(Resilience, KillAndResumeReproducesTheUninterruptedRun) {
  const std::vector<Benchmark> benches = adder_manifest(10);
  const std::string full_path = temp_path("journal_full.jsonl");

  BatchOptions bo;
  bo.flow = fast_options();
  bo.journal_path = full_path;
  BatchRunner full(bo);
  const BatchResult r0 = full.run(benches);
  ASSERT_EQ(r0.rows.size(), 10u);
  ASSERT_EQ(r0.journal_errors, 0u);
  for (const FlowRow& row : r0.rows)
    ASSERT_FALSE(row.worst_status().is_failed()) << row.circuit;

  // Split the journal into lines: one fsync'd record per row.
  std::ifstream in(full_path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  in.close();
  ASSERT_EQ(lines.size(), 10u);

  for (const std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{9}}) {
    // Simulate a SIGKILL after row k settled: keep the first k records.
    const std::string part = temp_path("journal_k" + std::to_string(k));
    std::ofstream out(part, std::ios::binary);
    for (std::size_t i = 0; i < k; ++i) out << lines[i] << "\n";
    out.close();

    BatchOptions ro = bo;
    ro.journal_path = part;
    ro.resume = true;
    BatchRunner resumed(ro);
    const BatchResult rk = resumed.run(benches);
    EXPECT_EQ(rk.rows_replayed, k);
    EXPECT_EQ(rk.journal_skipped_lines, 0u);
    ASSERT_EQ(rk.rows.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i)
      EXPECT_EQ(canon(rk.rows[i]), canon(r0.rows[i]))
          << "k=" << k << " row " << i << " (" << benches[i].name << ")";
    // The resumed run re-journaled what it re-ran: a second resume of the
    // same file replays everything.
    BatchRunner again(ro);
    const BatchResult r2 = again.run(benches);
    EXPECT_EQ(r2.rows_replayed, 10u);
    std::remove(part.c_str());
  }
  std::remove(full_path.c_str());
}

TEST(Resilience, DigestMismatchForcesRerun) {
  const std::vector<Benchmark> benches = adder_manifest(2);
  // Same circuits, different result-affecting options: nothing replays.
  // (A plain run's rows must not stand in for a --rewrite run's either.)
  using Tweak = void (*)(FlowOptions&);
  for (const Tweak tweak : std::initializer_list<Tweak>{
           [](FlowOptions& o) { o.synth.cube_limit += 1; },
           [](FlowOptions& o) { o.synth.run_rewrite = true; }}) {
    const std::string path = temp_path("journal_digest.jsonl");
    BatchOptions bo;
    bo.flow = fast_options();
    bo.journal_path = path;
    BatchRunner first(bo);
    (void)first.run(benches);

    BatchOptions ro = bo;
    ro.resume = true;
    tweak(ro.flow);
    BatchRunner resumed(ro);
    const BatchResult rk = resumed.run(benches);
    EXPECT_EQ(rk.rows_replayed, 0u);
    for (const FlowRow& row : rk.rows)
      EXPECT_FALSE(row.worst_status().is_failed()) << row.circuit;
    std::remove(path.c_str());
  }
}

TEST(Resilience, ResumeWithoutJournalIsAFreshRun) {
  const std::vector<Benchmark> benches = adder_manifest(2);
  BatchOptions bo;
  bo.flow = fast_options();
  bo.journal_path = temp_path("journal_fresh.jsonl");
  bo.resume = true;
  BatchRunner runner(bo);
  const BatchResult r = runner.run(benches);
  EXPECT_EQ(r.rows_replayed, 0u);
  EXPECT_EQ(r.journal_errors, 0u);
  for (const FlowRow& row : r.rows)
    EXPECT_FALSE(row.worst_status().is_failed()) << row.circuit;
  std::remove(bo.journal_path.c_str());
}

TEST(Resilience, RetryRecoversFromAnInjectedTransientFault) {
  const std::vector<Benchmark> benches = adder_manifest(1);
  BatchOptions bo;
  bo.flow = fast_options();
  bo.retries = 1;
  BatchRunner runner(bo);

  // The arena fault is one-shot: the first flow attempt dies with
  // InjectedFault (transient-retryable), the retry runs clean.
  FaultPlan p;
  p.arena_fail_at_node = 10;
  ScopedFaultPlan guard(p);
  const BatchResult r = runner.run(benches);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_FALSE(r.rows[0].worst_status().is_failed());
  EXPECT_EQ(r.rows[0].attempts, 2);
  EXPECT_EQ(r.retries_used, 1u);
}

TEST(Resilience, WithoutRetriesTheInjectedFaultFailsTheRow) {
  const std::vector<Benchmark> benches = adder_manifest(1);
  BatchOptions bo;
  bo.flow = fast_options();
  BatchRunner runner(bo);
  FaultPlan p;
  p.arena_fail_at_node = 10;
  ScopedFaultPlan guard(p);
  const BatchResult r = runner.run(benches);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0].worst_status().is_failed());
  EXPECT_EQ(r.rows[0].worst_status().code, ErrorCode::InjectedFault);
  EXPECT_TRUE(is_retryable(r.rows[0].worst_status().code));
  EXPECT_EQ(r.rows[0].attempts, 1);
}

TEST(Resilience, AllocFaultIsAbsorbedInOneAttemptStageFaultSurvivesRetry) {
  const std::vector<Benchmark> benches = adder_manifest(1);
  BatchOptions bo;
  bo.flow = fast_options();
  bo.retries = 1;
  {
    // One-shot: the allocation trip costs one ladder rung, the next rung
    // runs clean, so the first attempt already delivers a row.
    FaultPlan p;
    p.fail_at_allocation = 1;
    ScopedFaultPlan guard(p);
    BatchRunner runner(bo);
    const BatchResult r = runner.run(benches);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_FALSE(r.rows[0].worst_status().is_failed());
    EXPECT_EQ(r.rows[0].ours_status.code, ErrorCode::InjectedFault);
    EXPECT_EQ(r.rows[0].attempts, 1);
  }
  {
    // Persistent: every rung of every attempt enters spec-bdd and dies.
    FaultPlan p;
    p.trip_at_stage = "spec-bdd";
    ScopedFaultPlan guard(p);
    BatchRunner runner(bo);
    const BatchResult r = runner.run(benches);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_TRUE(r.rows[0].ours_status.is_failed());
    EXPECT_EQ(r.rows[0].ours_status.code, ErrorCode::InjectedFault);
    EXPECT_EQ(r.rows[0].attempts, 2);
    EXPECT_EQ(r.retries_used, 1u);
  }
}

TEST(Resilience, RetriesDoNotPerturbCleanRows) {
  const std::vector<Benchmark> benches = adder_manifest(3);
  BatchOptions plain;
  plain.flow = fast_options();
  BatchRunner a(plain);
  const BatchResult r0 = a.run(benches);

  BatchOptions with_retries = plain;
  with_retries.retries = 3;
  BatchRunner b(with_retries);
  const BatchResult r1 = b.run(benches);
  ASSERT_EQ(r1.rows.size(), r0.rows.size());
  EXPECT_EQ(r1.retries_used, 0u);
  for (std::size_t i = 0; i < r0.rows.size(); ++i) {
    EXPECT_EQ(canon(r1.rows[i]), canon(r0.rows[i])) << benches[i].name;
    EXPECT_EQ(r1.rows[i].attempts, 1);
  }
}

TEST(Resilience, JournalWriteFaultIsCountedNotFatal) {
  const std::vector<Benchmark> benches = adder_manifest(3);
  BatchOptions bo;
  bo.flow = fast_options();
  bo.journal_path = temp_path("journal_fault.jsonl");

  FaultPlan p;
  p.journal_fail_at_record = 1;
  ScopedFaultPlan guard(p);
  BatchRunner runner(bo);
  const BatchResult r = runner.run(benches);
  // The first append fails and disables journaling; the batch still
  // computes every row.
  EXPECT_EQ(r.journal_errors, 1u);
  ASSERT_EQ(r.rows.size(), 3u);
  for (const FlowRow& row : r.rows)
    EXPECT_FALSE(row.worst_status().is_failed()) << row.circuit;
  std::remove(bo.journal_path.c_str());
}

TEST(Resilience, FlowRowJsonRoundTripsEveryRewriteCounter) {
  // The journal replays rows from this JSON, so every rewrite counter must
  // come back; the phase timings are not carried.
  FlowRow row;
  row.circuit = "rd53";
  row.rewrite.passes = 1;
  row.rewrite.roots = 2;
  row.rewrite.cuts_enumerated = 3;
  row.rewrite.db_hits = 4;
  row.rewrite.candidates = 5;
  row.rewrite.stale_skips = 6;
  row.rewrite.replacements = 7;
  row.rewrite.sim_rejects = 8;
  row.rewrite.bdd_rejects = 9;
  row.rewrite.lits_before = 10;
  row.rewrite.lits_after = 11;
  row.rewrite.gain_lits = 12;
  row.rewrite.cuts_seconds = 0.5;
  const obs::Json j = flow_row_json(row);
  const FlowRow back = flow_row_from_json(obs::Json::parse(j.dump()));
  EXPECT_EQ(back.rewrite.passes, 1u);
  EXPECT_EQ(back.rewrite.roots, 2u);
  EXPECT_EQ(back.rewrite.cuts_enumerated, 3u);
  EXPECT_EQ(back.rewrite.db_hits, 4u);
  EXPECT_EQ(back.rewrite.candidates, 5u);
  EXPECT_EQ(back.rewrite.stale_skips, 6u);
  EXPECT_EQ(back.rewrite.replacements, 7u);
  EXPECT_EQ(back.rewrite.sim_rejects, 8u);
  EXPECT_EQ(back.rewrite.bdd_rejects, 9u);
  EXPECT_EQ(back.rewrite.lits_before, 10u);
  EXPECT_EQ(back.rewrite.lits_after, 11u);
  EXPECT_EQ(back.rewrite.gain_lits, 12u);
  EXPECT_EQ(back.rewrite.cuts_seconds, 0.0);
  EXPECT_EQ(j.get("rewrite").size(), 12u);
  // A row without rewrite work carries no rewrite block at all.
  EXPECT_FALSE(flow_row_json(FlowRow{}).contains("rewrite"));
}

TEST(Resilience, FlowRowFromJsonRejectsMalformedRecords) {
  EXPECT_THROW(flow_row_from_json(obs::Json::parse("[1,2,3]")), RmsynError);
  obs::Json bad = obs::Json::object();
  bad["circuit"] = "x";
  obs::Json status = obs::Json::object();
  obs::Json ours = obs::Json::object();
  ours["outcome"] = "not-an-outcome";
  status["ours"] = std::move(ours);
  bad["status"] = std::move(status);
  EXPECT_THROW(flow_row_from_json(bad), RmsynError);
}

TEST(Resilience, AigerTruncationSweepNeverCrashes) {
  for (const bool binary : {false, true}) {
    const Network net = make_benchmark("adder3").spec;
    const std::string bytes = write_aiger_string(net, binary);
    ASSERT_FALSE(bytes.empty());
    // Every prefix must parse cleanly or throw a classified parse error —
    // never crash, hang, or read out of bounds (ASan enforces the latter).
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      try {
        (void)read_aiger_string(bytes.substr(0, len));
      } catch (const RmsynError& e) {
        EXPECT_EQ(e.code(), ErrorCode::ParseError) << "len=" << len;
      }
    }
    // Single-byte corruption sweep on the header line: same contract.
    const std::size_t header_end = bytes.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    for (std::size_t i = 0; i < header_end; ++i) {
      for (const char replacement : {'\0', '9', ' ', 'x'}) {
        std::string mutated = bytes;
        mutated[i] = replacement;
        try {
          (void)read_aiger_string(mutated);
        } catch (const RmsynError& e) {
          EXPECT_EQ(e.code(), ErrorCode::ParseError) << "byte " << i;
        }
      }
    }
  }
}

} // namespace
} // namespace rmsyn
