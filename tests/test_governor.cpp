// ResourceGovernor unit coverage plus end-to-end degradation-ladder and
// fault-injection runs through synthesize / baseline_synthesize / run_flow.
#include "util/governor.hpp"

#include <gtest/gtest.h>

#include <set>

#include "baseline/script.hpp"
#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "equiv/equiv.hpp"
#include "flow/flow.hpp"
#include "network/transform.hpp"
#include "obs/stage.hpp"
#include "util/faultplan.hpp"

namespace rmsyn {
namespace {

// Drives poll() until it reports exhaustion or `max` steps pass. The wall
// clock and the step budget are only consulted every kCheckInterval polls,
// so a trip is guaranteed to surface within one interval.
bool poll_until_trip(ResourceGovernor& gov,
                     uint64_t max = 4 * ResourceGovernor::kCheckInterval) {
  for (uint64_t i = 0; i < max; ++i)
    if (!gov.poll()) return true;
  return false;
}

TEST(Governor, UnlimitedNeverTrips) {
  ResourceGovernor gov; // all limits off
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(gov.poll());
  EXPECT_FALSE(gov.exhausted());
  EXPECT_EQ(gov.trip_kind(), TripKind::None);
  EXPECT_TRUE(ResourceLimits{}.unlimited());
}

TEST(Governor, UnlimitedIsFalseExactlyWhileAPlanArmsAGovernorSite) {
  EXPECT_TRUE(ResourceLimits{}.unlimited());
  FaultPlan io; // sites that need no governor
  io.io_truncate_at = 4;
  io.io_corrupt_at = 2;
  io.arena_fail_at_node = 3;
  io.journal_fail_at_record = 1;
  {
    ScopedFaultPlan plan(io);
    EXPECT_TRUE(ResourceLimits{}.unlimited());
  }
  FaultPlan alloc, stage, cache;
  alloc.fail_at_allocation = 1;
  stage.trip_at_stage = "factor";
  cache.overflow_computed_table = true;
  for (const FaultPlan& p : {alloc, stage, cache}) {
    {
      ScopedFaultPlan plan(p);
      EXPECT_FALSE(ResourceLimits{}.unlimited());
    }
    EXPECT_TRUE(ResourceLimits{}.unlimited());
  }
}

TEST(Governor, StepLimitTripsWithinOneCheckInterval) {
  ResourceLimits lim;
  lim.step_limit = 1;
  ResourceGovernor gov(lim);
  EXPECT_FALSE(lim.unlimited());
  uint64_t granted = 0;
  while (gov.poll()) ++granted;
  // Cheap polls pass until the next interval boundary forces the check.
  EXPECT_LT(granted, ResourceGovernor::kCheckInterval);
  EXPECT_TRUE(gov.exhausted());
  EXPECT_EQ(gov.trip_kind(), TripKind::StepLimit);
  EXPECT_EQ(gov.trip_reason(), "step budget exhausted");
  // Once tripped, every poll is refused.
  EXPECT_FALSE(gov.poll());
}

TEST(Governor, DeadlineTrips) {
  ResourceLimits lim;
  lim.deadline_seconds = 1e-9; // already elapsed by the first slow poll
  ResourceGovernor gov(lim);
  EXPECT_TRUE(poll_until_trip(gov));
  EXPECT_EQ(gov.trip_kind(), TripKind::Deadline);
}

TEST(Governor, CancelIsObservedAtNextCheck) {
  ResourceGovernor gov(ResourceLimits{});
  EXPECT_TRUE(gov.poll());
  gov.cancel();
  EXPECT_TRUE(poll_until_trip(gov));
  EXPECT_EQ(gov.trip_kind(), TripKind::Cancelled);
}

TEST(Governor, NodeLimitTripsImmediately) {
  ResourceLimits lim;
  lim.node_limit = 100;
  ResourceGovernor gov(lim);
  EXPECT_TRUE(gov.note_nodes(100)); // at the limit: fine
  EXPECT_TRUE(gov.poll());
  EXPECT_FALSE(gov.note_nodes(101)); // over: trips with no poll needed
  EXPECT_TRUE(gov.exhausted());
  EXPECT_FALSE(gov.poll());
  EXPECT_EQ(gov.trip_kind(), TripKind::NodeLimit);
}

TEST(Governor, AllocationFaultFiresOnExactNth) {
  FaultPlan p;
  p.fail_at_allocation = 5;
  ScopedFaultPlan plan(p);
  ResourceGovernor gov;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(gov.count_allocation());
  EXPECT_FALSE(gov.count_allocation()); // the 5th
  EXPECT_EQ(gov.trip_kind(), TripKind::FaultInjected);
  EXPECT_NE(gov.trip_reason().find("allocation"), std::string::npos);
  // Counted process-wide: a second governor does not restart the count.
  ResourceGovernor other;
  EXPECT_TRUE(other.count_allocation());
}

TEST(Governor, StageFaultTripsOnNamedStageAndRecordsIt) {
  FaultPlan p;
  p.trip_at_stage = "ofdd-build";
  ScopedFaultPlan plan(p);
  ResourceGovernor gov;
  {
    obs::ScopedStage outer(&gov, nullptr, "polarity-search");
    EXPECT_EQ(gov.current_stage(), "polarity-search");
    EXPECT_FALSE(gov.exhausted());
    {
      obs::ScopedStage inner(&gov, nullptr, "ofdd-build");
      EXPECT_TRUE(gov.exhausted());
      EXPECT_EQ(gov.current_stage(), "ofdd-build");
    }
    EXPECT_EQ(gov.current_stage(), "polarity-search");
  }
  EXPECT_EQ(gov.current_stage(), "");
  EXPECT_EQ(gov.trip_kind(), TripKind::FaultInjected);
  EXPECT_EQ(gov.trip_stage(), "ofdd-build");
}

TEST(Governor, StageScopeIsNullSafe) {
  obs::ScopedStage a(nullptr, nullptr, "anything");
  obs::ScopedStage b(nullptr, nullptr, "nested");
  SUCCEED();
}

TEST(Governor, CacheOverflowFaultIsAdvertised) {
  FaultPlan p;
  p.overflow_computed_table = true;
  {
    ScopedFaultPlan plan(p);
    EXPECT_TRUE(fault_cache_overflow());
    ResourceGovernor gov;
    EXPECT_TRUE(gov.poll()); // the fault degrades the cache, never trips
  }
  EXPECT_FALSE(fault_cache_overflow());
}

TEST(Governor, FallbackReArmsAndPreservesFirstTrip) {
  ResourceLimits lim;
  lim.step_limit = 1;
  ResourceGovernor gov(lim);
  // Untripped fallback is a free no-op.
  EXPECT_TRUE(gov.grant_fallback());
  EXPECT_EQ(gov.fallbacks_granted(), 0);

  ASSERT_TRUE(poll_until_trip(gov));
  EXPECT_EQ(gov.trip_kind(), TripKind::StepLimit);
  ASSERT_TRUE(gov.grant_fallback());
  EXPECT_EQ(gov.fallbacks_granted(), 1);
  EXPECT_FALSE(gov.exhausted());
  EXPECT_TRUE(gov.poll()); // fresh slice: budget is live again

  // A second trip of a different kind must not overwrite the first record.
  gov.cancel();
  ASSERT_TRUE(poll_until_trip(gov));
  EXPECT_EQ(gov.trip_kind(), TripKind::StepLimit);
  EXPECT_EQ(gov.trip_reason(), "step budget exhausted");
}

TEST(Governor, FallbackAllowanceIsBounded) {
  ResourceLimits lim;
  lim.step_limit = 1;
  ResourceGovernor gov(lim);
  for (int i = 0; i < ResourceGovernor::kMaxFallbacks; ++i) {
    ASSERT_TRUE(poll_until_trip(gov)) << "round " << i;
    ASSERT_TRUE(gov.grant_fallback()) << "round " << i;
  }
  ASSERT_TRUE(poll_until_trip(gov));
  EXPECT_FALSE(gov.grant_fallback()); // allowance spent: ladder must stop
  EXPECT_EQ(gov.fallbacks_granted(), ResourceGovernor::kMaxFallbacks);
}

TEST(FlowStatusTest, FormattingAndOrdering) {
  EXPECT_EQ(FlowStatus::ok().to_string(), "ok");
  EXPECT_EQ(FlowStatus::degraded("resub").to_string(), "degraded:resub");
  EXPECT_EQ(FlowStatus::failed("spec-bdd", "deadline").to_string(),
            "failed:deadline");
  EXPECT_EQ(FlowStatus::failed("spec-bdd", "").to_string(), "failed:spec-bdd");

  const FlowStatus ok = FlowStatus::ok();
  const FlowStatus deg = FlowStatus::degraded("verify");
  const FlowStatus bad = FlowStatus::failed("x", "y");
  EXPECT_TRUE(ok.is_ok());
  EXPECT_TRUE(deg.is_degraded());
  EXPECT_TRUE(bad.is_failed());
  EXPECT_LT(ok.severity(), deg.severity());
  EXPECT_LT(deg.severity(), bad.severity());
  EXPECT_EQ(worse(ok, deg).to_string(), deg.to_string());
  EXPECT_EQ(worse(bad, deg).to_string(), bad.to_string());
  EXPECT_EQ(worse(ok, ok).to_string(), "ok");

  EXPECT_STREQ(to_string(TripKind::None), "none");
  EXPECT_STREQ(to_string(TripKind::Deadline), "deadline");
  EXPECT_STREQ(to_string(TripKind::NodeLimit), "node-limit");
  EXPECT_STREQ(to_string(TripKind::StepLimit), "step-limit");
  EXPECT_STREQ(to_string(TripKind::Cancelled), "cancelled");
  EXPECT_STREQ(to_string(TripKind::FaultInjected), "fault-injected");
}

// --- end-to-end: the degradation ladder --------------------------------------

// Verified-or-absent: whatever a governed flow returns must be equivalent
// to the spec — a failed flow hands back the spec itself, which trivially is.
void expect_equivalent(const Network& spec, const Network& out) {
  const auto check = check_equivalence(spec, out); // ungoverned: always decides
  EXPECT_TRUE(check.equivalent) << check.reason;
}

TEST(GovernedSynth, UnlimitedGovernorMatchesUngovernedResult) {
  const Benchmark bench = make_benchmark("rd53");
  SynthReport plain, governed;
  const Network a = synthesize(bench.spec, {}, &plain);
  SynthOptions opt;
  ResourceGovernor gov; // attached but unlimited
  opt.governor = &gov;
  const Network b = synthesize(bench.spec, opt, &governed);
  EXPECT_TRUE(plain.status.is_ok());
  EXPECT_TRUE(governed.status.is_ok());
  EXPECT_EQ(governed.ladder_descents, 0u);
  EXPECT_EQ(network_stats(a).lits, network_stats(b).lits);
  expect_equivalent(bench.spec, b);
}

TEST(GovernedSynth, StageFaultInSpecBddFailsEveryRungToPassthrough) {
  const Benchmark bench = make_benchmark("rd53");
  SynthOptions opt;
  FaultPlan p;
  p.trip_at_stage = "spec-bdd"; // every rung starts here → all die
  ScopedFaultPlan plan(p);
  ResourceGovernor gov;
  opt.governor = &gov;
  SynthReport rep;
  const Network out = synthesize(bench.spec, opt, &rep);
  EXPECT_TRUE(rep.status.is_failed()) << rep.status.to_string();
  EXPECT_EQ(rep.status.stage, "spec-bdd");
  EXPECT_NE(rep.status.reason.find("fault-injected"), std::string::npos)
      << rep.status.reason;
  EXPECT_EQ(rep.ladder_descents, 3u); // Full, FixedPolarity, OfddOnly all died
  expect_equivalent(bench.spec, out); // passthrough of the spec
}

TEST(GovernedSynth, StageFaultInRedundancyDegradesButStaysCorrect) {
  const Benchmark bench = make_benchmark("rd53");
  SynthOptions opt;
  FaultPlan p;
  p.trip_at_stage = "redundancy";
  ScopedFaultPlan plan(p);
  ResourceGovernor gov;
  opt.governor = &gov;
  SynthReport rep;
  const Network out = synthesize(bench.spec, opt, &rep);
  EXPECT_TRUE(rep.status.is_degraded()) << rep.status.to_string();
  EXPECT_EQ(rep.status.stage, "redundancy");
  expect_equivalent(bench.spec, out);
}

TEST(GovernedSynth, StageFaultInResubDegradesButStaysCorrect) {
  const Benchmark bench = make_benchmark("rd53");
  SynthOptions opt;
  FaultPlan p;
  p.trip_at_stage = "resub";
  ScopedFaultPlan plan(p);
  ResourceGovernor gov;
  opt.governor = &gov;
  SynthReport rep;
  const Network out = synthesize(bench.spec, opt, &rep);
  EXPECT_FALSE(rep.status.is_failed()) << rep.status.to_string();
  expect_equivalent(bench.spec, out);
}

TEST(GovernedSynth, AllocationFaultProducesVerifiedOrPassthroughResult) {
  const Benchmark bench = make_benchmark("rd53");
  for (const uint64_t nth : {1u, 50u, 2000u}) {
    SynthOptions opt;
    FaultPlan p;
    p.fail_at_allocation = nth;
    ScopedFaultPlan plan(p);
    ResourceGovernor gov;
    opt.governor = &gov;
    SynthReport rep;
    const Network out = synthesize(bench.spec, opt, &rep);
    // The fault is one-shot, so later rungs can complete: any status is
    // permitted, the result must always be equivalent.
    expect_equivalent(bench.spec, out);
    if (rep.status.is_ok()) {
      EXPECT_EQ(gov.trip_kind(), TripKind::None);
    }
  }
}

TEST(GovernedSynth, CacheOverflowFaultOnlySlowsTheFlow) {
  const Benchmark bench = make_benchmark("rd53");
  SynthOptions opt;
  FaultPlan p;
  p.overflow_computed_table = true;
  ScopedFaultPlan plan(p);
  ResourceGovernor gov;
  opt.governor = &gov;
  SynthReport rep;
  const Network out = synthesize(bench.spec, opt, &rep);
  EXPECT_TRUE(rep.status.is_ok()) << rep.status.to_string();
  expect_equivalent(bench.spec, out);
}

// Sweeping the step budget from starvation to plenty must walk every rung
// of the ladder: failed at the bottom, ok at the top, degraded in between —
// and every returned network equivalent to the spec regardless.
TEST(GovernedSynth, StepBudgetSweepCoversTheLadder) {
  const Benchmark bench = make_benchmark("z4ml");
  std::set<FlowOutcome> outcomes;
  std::set<std::size_t> descents;
  for (uint64_t budget = ResourceGovernor::kCheckInterval;
       budget <= (uint64_t{1} << 26); budget *= 8) {
    SynthOptions opt;
    ResourceLimits lim;
    lim.step_limit = budget;
    ResourceGovernor gov(lim);
    opt.governor = &gov;
    SynthReport rep;
    const Network out = synthesize(bench.spec, opt, &rep);
    outcomes.insert(rep.status.outcome);
    descents.insert(rep.ladder_descents);
    expect_equivalent(bench.spec, out);
  }
  EXPECT_TRUE(outcomes.count(FlowOutcome::Failed)); // starved budget
  EXPECT_TRUE(outcomes.count(FlowOutcome::Ok));     // ample budget
  EXPECT_TRUE(descents.count(0u));
  EXPECT_GT(descents.size(), 1u); // at least one run actually descended
}

// A step budget that trips inside the polarity search of a wide-support
// circuit (my_adder's BDD spectra) leaves a polarity the flow can use: the
// run degrades, and every returned network is equivalent to the spec.
TEST(GovernedSynth, StepLimitInWideSupportSearchDegradesButStaysCorrect) {
  const Benchmark bench = make_benchmark("my_adder");
  bool search_tripped = false;
  for (const uint64_t budget : {10000u, 100000u, 1000000u}) {
    SynthOptions opt;
    ResourceLimits lim;
    lim.step_limit = budget;
    ResourceGovernor gov(lim);
    opt.governor = &gov;
    SynthReport rep;
    const Network out = synthesize(bench.spec, opt, &rep);
    EXPECT_FALSE(rep.status.is_ok()) << budget;
    if (rep.status.is_degraded() && rep.status.stage == "polarity-search")
      search_tripped = true;
    expect_equivalent(bench.spec, out);
  }
  EXPECT_TRUE(search_tripped);
}

// --- end-to-end: the baseline script -----------------------------------------

TEST(GovernedBaseline, StageFaultDegradesButPrefixStaysEquivalent) {
  const Benchmark bench = make_benchmark("rd53");
  for (const char* stage : {"baseline-simplify", "baseline-extract",
                            "baseline-redundancy"}) {
    BaselineOptions opt;
    FaultPlan p;
    p.trip_at_stage = stage;
    ScopedFaultPlan plan(p);
    ResourceGovernor gov;
    opt.governor = &gov;
    BaselineReport rep;
    const Network out = baseline_synthesize(bench.spec, opt, &rep);
    EXPECT_TRUE(rep.status.is_degraded()) << stage << ": "
                                          << rep.status.to_string();
    EXPECT_EQ(rep.status.stage, stage);
    expect_equivalent(bench.spec, out);
  }
}

TEST(GovernedBaseline, TinyStepBudgetStillReturnsEquivalentNetwork) {
  const Benchmark bench = make_benchmark("z4ml");
  BaselineOptions opt;
  ResourceLimits lim;
  lim.step_limit = ResourceGovernor::kCheckInterval;
  ResourceGovernor gov(lim);
  opt.governor = &gov;
  BaselineReport rep;
  const Network out = baseline_synthesize(bench.spec, opt, &rep);
  EXPECT_FALSE(rep.status.is_failed()); // the script cannot fail
  expect_equivalent(bench.spec, out);
}

// --- end-to-end: run_flow (satellite: no all-or-nothing) ---------------------

TEST(GovernedFlow, OneFlowFailingKeepsTheOtherFlowsColumns) {
  // Kills only the FPRM flow: the baseline never enters a "spec-bdd" stage.
  // The limits are unlimited; the armed stage site alone makes run_flow
  // attach a governor to each flow.
  FaultPlan p;
  p.trip_at_stage = "spec-bdd";
  ScopedFaultPlan plan(p);
  const FlowRow row = run_flow("rd53", FlowOptions{});
  EXPECT_TRUE(row.ours_status.is_failed()) << row.ours_status.to_string();
  EXPECT_TRUE(row.base_status.is_ok()) << row.base_status.to_string();
  EXPECT_GT(row.base_lits, 0u);
  // Bottom rung of the ladder: the delivered network is the baseline's.
  EXPECT_GT(row.ours_lits, 0u);
  EXPECT_TRUE(row.worst_status().is_failed());
}

TEST(GovernedFlow, PerFlowGovernorsAreIndependent) {
  FlowOptions opt;
  opt.limits.step_limit = uint64_t{1} << 22; // plenty for rd53, per flow
  const FlowRow row = run_flow("rd53", opt);
  // Neither flow inherits the other's spent budget.
  EXPECT_FALSE(row.ours_status.is_failed()) << row.ours_status.to_string();
  EXPECT_FALSE(row.base_status.is_failed()) << row.base_status.to_string();
  EXPECT_GT(row.ours_lits, 0u);
  EXPECT_GT(row.base_lits, 0u);
}

TEST(GovernedFlow, UnlimitedLimitsReportOkEverywhere) {
  const FlowRow row = run_flow("majority", FlowOptions{});
  EXPECT_TRUE(row.ours_status.is_ok()) << row.ours_status.to_string();
  EXPECT_TRUE(row.base_status.is_ok()) << row.base_status.to_string();
  EXPECT_TRUE(row.worst_status().is_ok());
}

} // namespace
} // namespace rmsyn
