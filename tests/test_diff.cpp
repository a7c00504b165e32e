// QoR regression diffing tests: verdict classification per metric class
// (zero-tolerance QoR, banded timing, higher-better rates, non-gating
// telemetry), report-mode row matching, status severity, schema-mismatch
// structural errors, the generic BENCH walk, formatting and exit codes.
#include <gtest/gtest.h>

#include "obs/diff.hpp"
#include "obs/json.hpp"

namespace rmsyn {
namespace {

using obs::DiffOptions;
using obs::DiffResult;
using obs::Json;
using obs::Verdict;

/// Minimal well-formed run report with one row; callers tweak fields.
Json tiny_report() {
  return Json::parse(R"({
    "tool": "rmsyn",
    "schema_version": 3,
    "command": "table2",
    "jobs": 1,
    "wall_seconds": 1.0,
    "worst_status": "ok",
    "rows": [
      {
        "circuit": "rd53",
        "inputs": 5,
        "outputs": 3,
        "base_lits": 92,
        "ours_lits": 62,
        "base_seconds": 0.25,
        "ours_seconds": 0.5,
        "ours_power": 1.0,
        "improve_lits_pct": 32.6,
        "row_seconds": 0.6,
        "status": {"worst": "ok"}
      }
    ],
    "metrics": {}
  })");
}

DiffResult run_diff(const Json& base, const Json& ours) {
  return obs::diff_documents(base, ours, DiffOptions{});
}

const obs::DiffEntry* find_entry(const DiffResult& r, const std::string& p) {
  for (const auto& e : r.entries)
    if (e.path == p) return &e;
  return nullptr;
}

// --- verdict classes ---------------------------------------------------------

TEST(DiffVerdicts, IdenticalReportsAreSameAndExitZero) {
  const Json a = tiny_report();
  const DiffResult r = run_diff(a, a);
  EXPECT_EQ(r.worst, Verdict::Same);
  EXPECT_TRUE(r.entries.empty());
  EXPECT_TRUE(r.errors.empty());
  EXPECT_EQ(obs::diff_exit_code(r), 0);
}

TEST(DiffVerdicts, LiteralIncreaseIsZeroToleranceRegress) {
  const Json base = tiny_report();
  // Bump ours_lits by the smallest possible amount: still a regression.
  std::string text = base.dump();
  const std::size_t pos = text.find("\"ours_lits\":62");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 14, "\"ours_lits\":63");
  const DiffResult r = run_diff(base, Json::parse(text));
  EXPECT_EQ(r.worst, Verdict::Regress);
  const obs::DiffEntry* e = find_entry(r, "rows[rd53].ours_lits");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->verdict, Verdict::Regress);
  EXPECT_DOUBLE_EQ(e->base, 62.0);
  EXPECT_DOUBLE_EQ(e->ours, 63.0);
  EXPECT_EQ(obs::diff_exit_code(r), 2);
}

TEST(DiffVerdicts, LiteralDecreaseIsImprove) {
  const Json base = tiny_report();
  std::string text = base.dump();
  const std::size_t pos = text.find("\"ours_lits\":62");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 14, "\"ours_lits\":60");
  const DiffResult r = run_diff(base, Json::parse(text));
  EXPECT_EQ(r.worst, Verdict::Improve);
  EXPECT_EQ(obs::diff_exit_code(r), 0);
}

TEST(DiffVerdicts, TimingJitterInsideBandIsNoise) {
  const Json base = tiny_report();
  std::string text = base.dump();
  // ours_seconds 0.5 -> 0.55: +10%, inside the default 25% band.
  const std::size_t pos = text.find("\"ours_seconds\":0.5");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 18, "\"ours_seconds\":0.55");
  const DiffResult r = run_diff(base, Json::parse(text));
  EXPECT_EQ(r.worst, Verdict::Noise);
  EXPECT_EQ(obs::diff_exit_code(r), 0);
}

TEST(DiffVerdicts, TimingBeyondBandGates) {
  const Json base = tiny_report();
  std::string text = base.dump();
  // 0.5 -> 0.9: +80%, far outside the 25% band.
  const std::size_t pos = text.find("\"ours_seconds\":0.5");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 18, "\"ours_seconds\":0.9");
  const DiffResult r = run_diff(base, Json::parse(text));
  EXPECT_EQ(r.worst, Verdict::Regress);

  DiffOptions ignore;
  ignore.ignore_timing = true;
  const DiffResult r2 =
      obs::diff_documents(base, Json::parse(text), ignore);
  EXPECT_EQ(r2.worst, Verdict::Same) << "--ignore-timing must skip it";
}

TEST(DiffVerdicts, SubFloorTimingNeverGates) {
  // 1ms -> 40ms is a 40x slowdown but under the 50ms absolute floor.
  const Json base = Json::parse(R"({"stage_seconds": 0.001})");
  const Json ours = Json::parse(R"({"stage_seconds": 0.040})");
  const DiffResult r = run_diff(base, ours);
  EXPECT_EQ(r.worst, Verdict::Noise);
}

TEST(DiffVerdicts, RatesAreHigherBetter) {
  const Json base = Json::parse(R"({"cuts_per_second": 1000.0})");
  const Json faster = Json::parse(R"({"cuts_per_second": 2000.0})");
  const Json slower = Json::parse(R"({"cuts_per_second": 100.0})");
  EXPECT_EQ(run_diff(base, faster).worst, Verdict::Improve);
  EXPECT_EQ(run_diff(base, slower).worst, Verdict::Regress);
}

TEST(DiffVerdicts, PerSecSuffixIsARateNotACount) {
  // bench_network_scale's stages[].nodes_per_sec names "nodes" but is a
  // throughput: run-to-run jitter is noise, and --ignore-timing skips it.
  const Json base = Json::parse(
      R"({"stages": [{"name": "synthesize", "nodes_per_sec": 1000.0}]})");
  const Json ours = Json::parse(
      R"({"stages": [{"name": "synthesize", "nodes_per_sec": 1100.0}]})");
  const DiffResult r = run_diff(base, ours);
  EXPECT_EQ(r.worst, Verdict::Noise);
  EXPECT_EQ(obs::diff_exit_code(r), 0);

  DiffOptions ignore;
  ignore.ignore_timing = true;
  const DiffResult skipped = obs::diff_documents(base, ours, ignore);
  EXPECT_EQ(skipped.worst, Verdict::Same);
  EXPECT_TRUE(skipped.entries.empty());
}

TEST(DiffVerdicts, UnknownCountersAreNonGatingNoise) {
  const Json base = Json::parse(R"({"events": 100})");
  const Json ours = Json::parse(R"({"events": 90000})");
  const DiffResult r = run_diff(base, ours);
  EXPECT_EQ(r.worst, Verdict::Noise);
  EXPECT_EQ(obs::diff_exit_code(r), 0);
}

TEST(DiffVerdicts, InvariantFlagFlipIsRegress) {
  const Json base = Json::parse(R"({"results_identical": true})");
  const Json ours = Json::parse(R"({"results_identical": false})");
  EXPECT_EQ(run_diff(base, ours).worst, Verdict::Regress);
  // false -> true is an improvement, not noise.
  EXPECT_EQ(run_diff(ours, base).worst, Verdict::Improve);
}

// --- report-mode structure ---------------------------------------------------

TEST(DiffReports, MissingCircuitIsSchemaMismatchAndExitFour) {
  const Json base = tiny_report();
  std::string text = base.dump();
  const std::size_t pos = text.find("\"circuit\":\"rd53\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 16, "\"circuit\":\"rd73\"");
  const DiffResult r = run_diff(base, Json::parse(text));
  EXPECT_EQ(r.worst, Verdict::SchemaMismatch);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("rows[rd53]"), std::string::npos);
  EXPECT_EQ(obs::diff_exit_code(r), 4);
}

TEST(DiffReports, NonReportVsReportIsSchemaMismatch) {
  const Json report = tiny_report();
  const Json bench = Json::parse(R"({"bench": "obs", "plain_seconds": 1.0})");
  const DiffResult r = run_diff(report, bench);
  EXPECT_EQ(r.worst, Verdict::SchemaMismatch);
  EXPECT_EQ(obs::diff_exit_code(r), 4);
}

TEST(DiffReports, StatusSeverityIncreaseIsRegress) {
  const Json base = tiny_report();
  std::string text = base.dump();
  const std::size_t pos = text.find("{\"worst\":\"ok\"}");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 14, "{\"worst\":\"degraded\"}");
  const DiffResult r = run_diff(base, Json::parse(text));
  EXPECT_EQ(r.worst, Verdict::Regress);
  ASSERT_NE(find_entry(r, "rows[rd53].status.worst"), nullptr);
  // And the reverse direction is an improvement.
  const DiffResult r2 = run_diff(Json::parse(text), base);
  EXPECT_EQ(r2.worst, Verdict::Improve);
}

TEST(DiffReports, DerivedPercentagesAreSkipped) {
  const Json base = tiny_report();
  std::string text = base.dump();
  const std::size_t pos = text.find("\"improve_lits_pct\":32.6");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 23, "\"improve_lits_pct\":99.9");
  const DiffResult r = run_diff(base, Json::parse(text));
  // The percentage restates ours_lits; changing it alone reports nothing.
  EXPECT_EQ(r.worst, Verdict::Same);
}

TEST(DiffReports, AdditiveEvolutionToleratesMissingTelemetry) {
  // v3 baseline vs v2-era candidate: row_seconds missing from the
  // candidate is tolerated (telemetry), a missing QoR column is not.
  const Json base = tiny_report();
  std::string no_latency = base.dump();
  const std::size_t lp = no_latency.find("\"row_seconds\":0.6,");
  ASSERT_NE(lp, std::string::npos);
  no_latency.erase(lp, 18);
  EXPECT_EQ(run_diff(base, Json::parse(no_latency)).worst, Verdict::Same);

  std::string no_lits = base.dump();
  const std::size_t qp = no_lits.find("\"ours_lits\":62,");
  ASSERT_NE(qp, std::string::npos);
  no_lits.erase(qp, 15);
  const DiffResult r = run_diff(base, Json::parse(no_lits));
  EXPECT_EQ(r.worst, Verdict::SchemaMismatch);
}

// --- formatting --------------------------------------------------------------

TEST(DiffFormat, SummaryLineCountsVerdicts) {
  const Json base = tiny_report();
  std::string text = base.dump();
  const std::size_t pos = text.find("\"ours_lits\":62");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 14, "\"ours_lits\":63");
  const std::string out = obs::format_diff(run_diff(base, Json::parse(text)));
  EXPECT_NE(out.find("regress  rows[rd53].ours_lits: 62 -> 63"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("verdict: regress (1 regressed"), std::string::npos);
}

TEST(DiffFormat, VerdictSeverityOrderMatchesGatePolicy) {
  EXPECT_LT(Verdict::Same, Verdict::Improve);
  EXPECT_LT(Verdict::Improve, Verdict::Noise);
  EXPECT_LT(Verdict::Noise, Verdict::Regress);
  EXPECT_LT(Verdict::Regress, Verdict::SchemaMismatch);
}

} // namespace
} // namespace rmsyn
