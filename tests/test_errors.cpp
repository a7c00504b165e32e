// Error taxonomy (util/errors.hpp) and fault plan (util/faultplan.hpp):
// classification, exit-code mapping, string round-trips, exception
// classification, and the deterministic IO fault hooks.
#include "util/errors.hpp"

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>

#include "util/faultplan.hpp"

namespace rmsyn {
namespace {

const ErrorCode kAllCodes[] = {
    ErrorCode::None,           ErrorCode::BudgetDeadline,
    ErrorCode::BudgetNodes,    ErrorCode::BudgetSteps,
    ErrorCode::Cancelled,      ErrorCode::InjectedFault,
    ErrorCode::IoTransient,    ErrorCode::ParseError,
    ErrorCode::InvariantViolation, ErrorCode::VerifyMismatch,
    ErrorCode::Internal,
};

TEST(Errors, ClassificationSplitsTransientFromFatal) {
  for (const ErrorCode c :
       {ErrorCode::BudgetDeadline, ErrorCode::BudgetNodes,
        ErrorCode::BudgetSteps, ErrorCode::Cancelled, ErrorCode::InjectedFault,
        ErrorCode::IoTransient}) {
    EXPECT_EQ(error_class(c), ErrorClass::TransientRetryable) << to_string(c);
    EXPECT_TRUE(is_retryable(c)) << to_string(c);
  }
  for (const ErrorCode c :
       {ErrorCode::ParseError, ErrorCode::InvariantViolation,
        ErrorCode::VerifyMismatch, ErrorCode::Internal}) {
    EXPECT_EQ(error_class(c), ErrorClass::DeterministicFatal) << to_string(c);
    EXPECT_FALSE(is_retryable(c)) << to_string(c);
  }
  EXPECT_EQ(error_class(ErrorCode::None), ErrorClass::None);
  EXPECT_FALSE(is_retryable(ErrorCode::None));
}

TEST(Errors, NamesRoundTripThroughStrings) {
  for (const ErrorCode c : kAllCodes) {
    EXPECT_EQ(error_code_from_string(to_string(c)), c) << to_string(c);
  }
  // Unknown names (journal written by a newer build) degrade to Internal.
  EXPECT_EQ(error_code_from_string("no-such-code"), ErrorCode::Internal);
  EXPECT_EQ(error_code_from_string(""), ErrorCode::Internal);
}

TEST(Errors, ExitCodesAreStable) {
  EXPECT_EQ(exit_code_for_error(ErrorCode::None), ExitCode::Ok);
  EXPECT_EQ(exit_code_for_error(ErrorCode::ParseError), ExitCode::FatalInput);
  EXPECT_EQ(exit_code_for_error(ErrorCode::InvariantViolation),
            ExitCode::InvariantOrVerify);
  EXPECT_EQ(exit_code_for_error(ErrorCode::VerifyMismatch),
            ExitCode::InvariantOrVerify);
  EXPECT_EQ(exit_code_for_error(ErrorCode::Internal), ExitCode::Usage);
  for (const ErrorCode c :
       {ErrorCode::BudgetDeadline, ErrorCode::BudgetNodes,
        ErrorCode::BudgetSteps, ErrorCode::Cancelled, ErrorCode::InjectedFault,
        ErrorCode::IoTransient}) {
    EXPECT_EQ(exit_code_for_error(c), ExitCode::TransientFailure)
        << to_string(c);
  }
  // The numeric values themselves are a CLI contract (README, CI).
  EXPECT_EQ(ExitCode::Ok, 0);
  EXPECT_EQ(ExitCode::Usage, 1);
  EXPECT_EQ(ExitCode::BudgetDegraded, 2);
  EXPECT_EQ(ExitCode::TransientFailure, 3);
  EXPECT_EQ(ExitCode::FatalInput, 4);
  EXPECT_EQ(ExitCode::InvariantOrVerify, 5);
}

TEST(Errors, RmsynErrorCarriesCodeAndMessage) {
  const RmsynError e(ErrorCode::ParseError, "bad PLA at line 3");
  EXPECT_EQ(e.code(), ErrorCode::ParseError);
  EXPECT_STREQ(e.what(), "bad PLA at line 3");
}

TEST(Errors, ClassifyExceptionMapsKnownTypes) {
  const RmsynError re(ErrorCode::InjectedFault, "boom");
  EXPECT_EQ(classify_exception(re), ErrorCode::InjectedFault);
  const std::bad_alloc oom;
  EXPECT_EQ(classify_exception(oom), ErrorCode::BudgetNodes);
  const std::logic_error le("verify");
  EXPECT_EQ(classify_exception(le), ErrorCode::VerifyMismatch);
  const std::runtime_error other("mystery");
  EXPECT_EQ(classify_exception(other), ErrorCode::Internal);
}

TEST(FaultPlanTest, ParseReadsEveryKey) {
  const FaultPlan p = FaultPlan::parse(
      "seed=7,truncate=10,corrupt=3,arena=100,journal=2,alloc=50,"
      "stage=spec-bdd,cache=1");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_EQ(p.io_truncate_at, 10u);
  EXPECT_EQ(p.io_corrupt_at, 3u);
  EXPECT_EQ(p.arena_fail_at_node, 100u);
  EXPECT_EQ(p.journal_fail_at_record, 2u);
  EXPECT_EQ(p.fail_at_allocation, 50u);
  EXPECT_EQ(p.trip_at_stage, "spec-bdd");
  EXPECT_TRUE(p.overflow_computed_table);
  EXPECT_TRUE(p.any_io());
  EXPECT_TRUE(p.arms_governor());
  const FaultPlan none = FaultPlan::parse("seed=1,cache=0");
  EXPECT_FALSE(none.any_io());
  EXPECT_FALSE(none.overflow_computed_table);
  EXPECT_FALSE(none.arms_governor());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"bogus=1", "seed", "seed=", "seed=notanum", "=3",
        "arena=18446744073709551616" /* 2^64: overflow */, "stage=",
        "cache=2", "alloc=-1", "alloc=+5", "alloc=1x"}) {
    try {
      FaultPlan::parse(bad);
      FAIL() << "accepted: " << bad;
    } catch (const RmsynError& e) {
      EXPECT_EQ(e.code(), ErrorCode::ParseError) << bad;
    }
  }
  // A bad value names its key and the value, not "unknown key".
  struct Case {
    const char* spec;
    const char* key;
    const char* value;
  };
  for (const Case& c : {Case{"stage=", "'stage'", "''"},
                        Case{"cache=2", "'cache'", "'2'"},
                        Case{"alloc=1x", "'alloc'", "'1x'"}}) {
    try {
      FaultPlan::parse(c.spec);
      FAIL() << "accepted: " << c.spec;
    } catch (const RmsynError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.key), std::string::npos) << what;
      EXPECT_NE(what.find(c.value), std::string::npos) << what;
      EXPECT_EQ(what.find("unknown key"), std::string::npos) << what;
    }
  }
}

TEST(FaultPlanTest, IoFaultsAreDeterministicAndScoped) {
  const std::string original = "abcdefghij";
  // No plan installed: identity.
  EXPECT_EQ(apply_io_faults(original), original);

  FaultPlan p;
  p.seed = 42;
  p.io_truncate_at = 4;
  {
    ScopedFaultPlan guard(p);
    EXPECT_EQ(apply_io_faults(original), "abcd");
    // Truncation point past the end is a no-op.
    FaultPlan p2 = p;
    p2.io_truncate_at = 100;
    install_fault_plan(p2);
    EXPECT_EQ(apply_io_faults(original), original);
  }
  // Guard cleared the plan.
  EXPECT_EQ(apply_io_faults(original), original);

  FaultPlan c;
  c.seed = 42;
  c.io_corrupt_at = 3;
  {
    ScopedFaultPlan guard(c);
    const std::string once = apply_io_faults(original);
    EXPECT_EQ(once.size(), original.size());
    EXPECT_NE(once, original); // XOR value is forced odd: always a change
    EXPECT_EQ(once.substr(0, 2), "ab");
    EXPECT_EQ(once.substr(3), "defghij");
    EXPECT_EQ(apply_io_faults(original), once); // deterministic
  }
}

TEST(FaultPlanTest, ArenaFaultIsOneShot) {
  FaultPlan p;
  p.arena_fail_at_node = 2;
  ScopedFaultPlan guard(p);
  fault_count_node(); // node 1: armed at 2, no throw
  try {
    fault_count_node(); // node 2: fires
    FAIL() << "expected injected fault";
  } catch (const RmsynError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InjectedFault);
  }
  EXPECT_NO_THROW(fault_count_node()); // one-shot: never fires again
  EXPECT_NO_THROW(fault_count_node());
}

TEST(FaultPlanTest, JournalFaultFiresExactlyOnce) {
  FaultPlan p;
  p.journal_fail_at_record = 3;
  ScopedFaultPlan guard(p);
  EXPECT_FALSE(fault_journal_append());
  EXPECT_FALSE(fault_journal_append());
  EXPECT_TRUE(fault_journal_append()); // the 3rd append fails
  EXPECT_FALSE(fault_journal_append());
}

} // namespace
} // namespace rmsyn
