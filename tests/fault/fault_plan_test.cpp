#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/check.hpp"

namespace iobts::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultPlan, NullPlanIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.hasTransferFaults());
  // Every verdict on a null plan is "no fault".
  for (std::uint64_t serial = 0; serial < 100; ++serial) {
    EXPECT_FALSE(
        plan.faultVerdict(pfs::Channel::Write, serial, 1.0 * serial));
  }
}

TEST(FaultPlan, BuildersChainAndStore) {
  FaultPlan plan(42);
  plan.degradeChannel(pfs::Channel::Write, 0.5, {10.0, 20.0})
      .addTransferFault({.window = {0.0, 100.0}, .probability = 1.0})
      .addBlackout({30.0, 31.0});
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.hasTransferFaults());
  ASSERT_EQ(plan.degradations().size(), 1u);
  EXPECT_EQ(plan.degradations()[0].factor, 0.5);
  ASSERT_EQ(plan.blackouts().size(), 1u);
  EXPECT_EQ(plan.seed(), 42u);
}

TEST(FaultPlan, RejectsBadInputs) {
  FaultPlan plan;
  // Degradation factor must lie in (0, 1].
  EXPECT_THROW(plan.degradeChannel(pfs::Channel::Write, 0.0, {0.0, 1.0}),
               CheckError);
  EXPECT_THROW(plan.degradeChannel(pfs::Channel::Write, 1.5, {0.0, 1.0}),
               CheckError);
  EXPECT_THROW(plan.degradeChannel(pfs::Channel::Write, -0.5, {0.0, 1.0}),
               CheckError);
  // Probability must lie in [0, 1].
  EXPECT_THROW(
      plan.addTransferFault({.window = {0.0, 1.0}, .probability = 1.5}),
      CheckError);
  EXPECT_THROW(
      plan.addTransferFault({.window = {0.0, 1.0}, .probability = -0.5}),
      CheckError);
  // Windows must be non-empty with a finite, non-negative begin.
  EXPECT_THROW(plan.degradeChannel(pfs::Channel::Read, 0.5, {5.0, 5.0}),
               CheckError);
  EXPECT_THROW(plan.degradeChannel(pfs::Channel::Read, 0.5, {5.0, 4.0}),
               CheckError);
  EXPECT_THROW(plan.degradeChannel(pfs::Channel::Read, 0.5, {-1.0, 4.0}),
               CheckError);
  EXPECT_THROW(plan.degradeChannel(pfs::Channel::Read, 0.5, {kInf, kInf}),
               CheckError);
}

TEST(FaultPlan, BlackoutWindowsMustNotOverlap) {
  FaultPlan plan;
  plan.addBlackout({10.0, 20.0});
  EXPECT_THROW(plan.addBlackout({15.0, 25.0}), CheckError);
  EXPECT_THROW(plan.addBlackout({5.0, 10.5}), CheckError);
  EXPECT_THROW(plan.addBlackout({12.0, 13.0}), CheckError);
  // Touching [20, 30) is fine: windows are half-open.
  plan.addBlackout({20.0, 30.0});
  EXPECT_EQ(plan.blackouts().size(), 2u);
}

TEST(FaultPlan, WindowContainmentIsHalfOpen) {
  const TimeWindow w{2.0, 5.0};
  EXPECT_FALSE(w.contains(1.999));
  EXPECT_TRUE(w.contains(2.0));
  EXPECT_TRUE(w.contains(4.999));
  EXPECT_FALSE(w.contains(5.0));
  // Default window covers everything from 0 on.
  const TimeWindow all{};
  EXPECT_TRUE(all.contains(0.0));
  EXPECT_TRUE(all.contains(1e12));
}

TEST(FaultPlan, VerdictMatchesChannelAndWindow) {
  FaultPlan plan;
  plan.addTransferFault({.channel = pfs::Channel::Write,
                         .window = {10.0, 20.0},
                         .probability = 1.0});
  // Matches only the configured channel and completion window.
  EXPECT_TRUE(plan.faultVerdict(pfs::Channel::Write, 0, 15.0));
  EXPECT_FALSE(plan.faultVerdict(pfs::Channel::Read, 0, 15.0));
  EXPECT_FALSE(plan.faultVerdict(pfs::Channel::Write, 0, 25.0));
  EXPECT_FALSE(plan.faultVerdict(pfs::Channel::Write, 0, 20.0));  // end
}

TEST(FaultPlan, ProbabilisticVerdictIsDeterministicAndStateless) {
  FaultPlan a(123);
  a.addTransferFault({.window = {0.0, kInf}, .probability = 0.5});
  FaultPlan b(123);
  b.addTransferFault({.window = {0.0, kInf}, .probability = 0.5});

  int faulted = 0;
  for (std::uint64_t serial = 0; serial < 1000; ++serial) {
    const bool va = a.faultVerdict(pfs::Channel::Write, serial, 1.0);
    // Same seed, same serial => same verdict, independent of call order or
    // how many verdicts were drawn before (counter-based, not stateful).
    EXPECT_EQ(va, b.faultVerdict(pfs::Channel::Write, serial, 1.0));
    EXPECT_EQ(va, a.faultVerdict(pfs::Channel::Write, serial, 1.0));
    if (va) ++faulted;
  }
  // p=0.5 over 1000 draws: expect roughly half (very loose bounds).
  EXPECT_GT(faulted, 350);
  EXPECT_LT(faulted, 650);

  // A different seed yields a different verdict pattern.
  FaultPlan c(124);
  c.addTransferFault({.window = {0.0, kInf}, .probability = 0.5});
  int differing = 0;
  for (std::uint64_t serial = 0; serial < 1000; ++serial) {
    if (a.faultVerdict(pfs::Channel::Write, serial, 1.0) !=
        c.faultVerdict(pfs::Channel::Write, serial, 1.0)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 100);
}

TEST(FaultPlan, ZeroProbabilityNeverFaults) {
  FaultPlan plan(9);
  plan.addTransferFault({.window = {0.0, kInf}, .probability = 0.0});
  for (std::uint64_t serial = 0; serial < 200; ++serial) {
    EXPECT_FALSE(plan.faultVerdict(pfs::Channel::Read, serial, 1.0));
  }
}

TEST(FaultPlan, OutageStoresFractionAndWindow) {
  FaultPlan plan;
  plan.addOutage(0.5, {10.0, 20.0}).addOutage(1.0, {30.0, 40.0});
  EXPECT_FALSE(plan.empty());
  ASSERT_EQ(plan.outages().size(), 2u);
  EXPECT_EQ(plan.outages()[0].fraction, 0.5);
  EXPECT_EQ(plan.outages()[0].window.begin, 10.0);
  EXPECT_EQ(plan.outages()[0].window.end, 20.0);
  EXPECT_EQ(plan.outages()[1].fraction, 1.0);
  // Outages carry no verdicts: transfers are slowed, never failed.
  EXPECT_FALSE(plan.hasTransferFaults());
  EXPECT_FALSE(plan.faultVerdict(pfs::Channel::Write, 0, 15.0));
}

TEST(FaultPlan, OutageRejectsBadInputs) {
  FaultPlan plan;
  // Fraction must lie in (0, 1] -- 0 would be a no-op, > 1 is meaningless.
  EXPECT_THROW(plan.addOutage(0.0, {0.0, 1.0}), CheckError);
  EXPECT_THROW(plan.addOutage(-0.25, {0.0, 1.0}), CheckError);
  EXPECT_THROW(plan.addOutage(1.5, {0.0, 1.0}), CheckError);
  EXPECT_THROW(plan.addOutage(std::numeric_limits<double>::quiet_NaN(),
                              {0.0, 1.0}),
               CheckError);
  // Windows follow the same rules as every other event class.
  EXPECT_THROW(plan.addOutage(0.5, {5.0, 5.0}), CheckError);
  EXPECT_THROW(plan.addOutage(0.5, {5.0, 4.0}), CheckError);
  EXPECT_THROW(plan.addOutage(0.5, {-1.0, 4.0}), CheckError);
  EXPECT_TRUE(plan.outages().empty());
}

TEST(FaultPlan, NullPlanStaysEmptyWithOutageSupportPresent) {
  // The satellite contract: adding the outage event class must not change
  // what a default-constructed (null) plan means.
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.outages().empty());
}

}  // namespace
}  // namespace iobts::fault
