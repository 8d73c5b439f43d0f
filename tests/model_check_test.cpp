// Engine-level model checking: bounded exhaustive exploration of the
// slice-streaming testbed scenarios (see check/scenarios.h), with fault
// injection at explored state boundaries, plus the resilient-driver
// mutation self-test (a dropped bank must be caught with a replayable
// schedule). Infrastructure-level explorer tests live in check_test.cpp.
#include <gtest/gtest.h>

#include <string>

#include "check/explore.h"
#include "check/scenarios.h"
#include "check/scheduler.h"

namespace rpr {
namespace {

TEST(ModelCheck, MicroRepairExploresCleanAndComplete) {
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  const auto r = check::explore(check::scenarios::testbed_micro(), opts);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message << "\n  "
                                        << r.violation->schedule;
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.schedules, 100u);
}

TEST(ModelCheck, MicroRepairWithFaultInjectionClean) {
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  opts.fault_budget = 1;
  opts.fault_candidates = check::scenarios::testbed_micro_fault_candidates();
  const auto r = check::explore(check::scenarios::testbed_micro(), opts);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message << "\n  "
                                        << r.violation->schedule;
  EXPECT_TRUE(r.complete);
  // Kill options multiply the space: every clean schedule exists plus the
  // fault-injected variants.
  EXPECT_GT(r.schedules, 2578u);
}

TEST(ModelCheck, WholeBlockMicroRepairWithFaultInjectionClean) {
  // One slice is whole-block mode: the same per-op executor, explored with
  // the micro case's preemption bound and kill candidates.
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  opts.fault_budget = 1;
  opts.fault_candidates = check::scenarios::testbed_micro_fault_candidates();
  const auto r = check::explore(check::scenarios::testbed_micro(1), opts);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message << "\n  "
                                        << r.violation->schedule;
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.schedules, 100u);
}

TEST(ModelCheck, ResilientReplanSchedulesClean) {
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  opts.max_schedules = 24;  // bounded: abort -> bank -> re-plan every run
  const auto r =
      check::explore(check::scenarios::resilient_testbed(true), opts);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message << "\n  "
                                        << r.violation->schedule;
  EXPECT_EQ(r.schedules, 24u);
}

TEST(ModelCheck, DroppedBankCaughtWithReplayableSchedule) {
  check::MutationGuard mg(check::Mutation::kDropBank);
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  opts.max_schedules = 8;
  const auto r =
      check::explore(check::scenarios::resilient_testbed(true), opts);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_NE(r.violation->message.find("banked partial lost"),
            std::string::npos)
      << r.violation->message;
  ASSERT_FALSE(r.violation->schedule.empty());

  const auto again = check::replay(check::scenarios::resilient_testbed(true),
                                   r.violation->schedule, opts);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->message, r.violation->message);
}

}  // namespace
}  // namespace rpr
