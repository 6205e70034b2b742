// End-to-end behaviour of the fault plane: degradation/blackout/outage
// windows installed on the SharedLink through a fault plan, per-transfer
// fault verdicts, retry/backoff in the ADIO engine, and rank-failure
// semantics in the World.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "fault/plan.hpp"
#include "mpisim/world.hpp"
#include "pfs/shared_link.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace iobts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

pfs::LinkConfig smallLink(BytesPerSec bw = 100.0) {
  pfs::LinkConfig cfg;
  cfg.read_capacity = bw;
  cfg.write_capacity = bw;
  return cfg;
}

// Free coroutine helpers: parameters are copied into the coroutine frame, so
// they stay valid however long the process runs.
sim::Task<void> transferAt(sim::Simulation& sim, pfs::SharedLink& link,
                           pfs::StreamId stream, sim::Time at, Bytes bytes,
                           pfs::TransferResult& out) {
  if (at > 0.0) co_await sim.delay(at);
  out = co_await link.transfer(pfs::Channel::Write, stream, bytes);
}

// --- SharedLink fault windows ---------------------------------------------

TEST(FaultLink, DegradationWindowSlowsTransfers) {
  sim::Simulation sim;
  // Half capacity during [5, 15): 1200 B move as 500 @100 + 500 @50 + 200
  // @100 => done at t = 5 + 10 + 2 = 17.
  fault::FaultPlan plan;
  plan.degradeChannel(pfs::Channel::Write, 0.5, {5.0, 15.0});
  pfs::SharedLink link(sim, smallLink());
  const auto s = link.createStream("rank0");
  link.installFaultPlan(plan);
  pfs::TransferResult result;
  double mid_window_capacity = -1.0;
  auto probe = [&]() -> sim::Task<void> {
    co_await sim.delay(10.0);
    mid_window_capacity = link.effectiveCapacity(pfs::Channel::Write);
  };
  sim.spawn(transferAt(sim, link, s, 0.0, 1200, result));
  sim.spawn(probe());
  sim.run();
  EXPECT_NEAR(result.end, 17.0, 1e-9);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(mid_window_capacity, 50.0);
  EXPECT_DOUBLE_EQ(link.effectiveCapacity(pfs::Channel::Write), 100.0);
  // Both window edges applied a capacity change.
  EXPECT_EQ(link.resolveStats(pfs::Channel::Write).capacity_edges, 2u);
}

TEST(FaultLink, BlackoutStallsAndResumesWithoutFailing) {
  sim::Simulation sim;
  fault::FaultPlan plan;
  plan.addBlackout({2.0, 4.0});
  pfs::SharedLink link(sim, smallLink());
  const auto s = link.createStream("rank0");
  link.installFaultPlan(plan);
  pfs::TransferResult result;
  double blackout_capacity = -1.0;
  auto probe = [&]() -> sim::Task<void> {
    co_await sim.delay(3.0);
    blackout_capacity = link.effectiveCapacity(pfs::Channel::Write);
  };
  sim.spawn(transferAt(sim, link, s, 0.0, 1000, result));
  sim.spawn(probe());
  sim.run();
  // 200 B before the blackout, a 2 s stall, then the remaining 800 B.
  EXPECT_NEAR(result.end, 12.0, 1e-9);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(blackout_capacity, 0.0);
  EXPECT_EQ(link.bytesMoved(pfs::Channel::Write), 1000u);
}

TEST(FaultLink, OutageRemovesCorrelatedCapacityFraction) {
  sim::Simulation sim;
  fault::FaultPlan plan;
  plan.addOutage(0.5, {2.0, 4.0});
  pfs::SharedLink link(sim, smallLink());
  const auto s = link.createStream("rank0");
  link.installFaultPlan(plan);
  pfs::TransferResult result;
  double write_capacity = -1.0;
  double read_capacity = -1.0;
  auto probe = [&]() -> sim::Task<void> {
    co_await sim.delay(3.0);
    write_capacity = link.effectiveCapacity(pfs::Channel::Write);
    read_capacity = link.effectiveCapacity(pfs::Channel::Read);
  };
  sim.spawn(transferAt(sim, link, s, 0.0, 1000, result));
  sim.spawn(probe());
  sim.run();
  // Both channels lose the same slice for the same window -- the
  // correlated "one server down" shape, not two independent degradations.
  EXPECT_DOUBLE_EQ(write_capacity, 50.0);
  EXPECT_DOUBLE_EQ(read_capacity, 50.0);
  // 200 B before the outage, 100 B at half rate, then 700 B at full rate.
  EXPECT_NEAR(result.end, 4.0 + 700.0 / 100.0, 1e-9);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(link.effectiveCapacity(pfs::Channel::Write), 100.0);
  EXPECT_DOUBLE_EQ(link.effectiveCapacity(pfs::Channel::Read), 100.0);
}

TEST(FaultLink, FullFractionOutageBehavesLikeABlackout) {
  sim::Simulation sim;
  fault::FaultPlan plan;
  plan.addOutage(1.0, {2.0, 4.0});
  pfs::SharedLink link(sim, smallLink());
  const auto s = link.createStream("rank0");
  link.installFaultPlan(plan);
  pfs::TransferResult result;
  sim.spawn(transferAt(sim, link, s, 0.0, 1000, result));
  sim.run();
  // Identical schedule to BlackoutStallsAndResumesWithoutFailing.
  EXPECT_NEAR(result.end, 12.0, 1e-9);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(link.bytesMoved(pfs::Channel::Write), 1000u);
}

TEST(FaultLink, OutageViaInstalledPlan) {
  sim::Simulation sim;
  fault::FaultPlan plan;
  plan.addOutage(0.75, {1.0, 3.0});
  pfs::SharedLink link(sim, smallLink());
  link.installFaultPlan(plan);
  const auto s = link.createStream("rank0");
  pfs::TransferResult result;
  // 100 B by t=1, 50 B at 25 B/s over [1, 3), then 850 B at full rate.
  sim.spawn(transferAt(sim, link, s, 0.0, 1000, result));
  sim.run();
  EXPECT_NEAR(result.end, 3.0 + 850.0 / 100.0, 1e-9);
  EXPECT_TRUE(result.ok());
}

TEST(FaultLink, TransferFaultVerdictMarksResultFaulted) {
  sim::Simulation sim;
  fault::FaultPlan plan(7);
  plan.addTransferFault({.probability = 1.0});
  pfs::SharedLink link(sim, smallLink());
  link.installFaultPlan(plan);
  const auto s = link.createStream("rank0");
  pfs::TransferResult result;
  sim.spawn(transferAt(sim, link, s, 0.0, 500, result));
  sim.run();
  // The transfer runs to its full fair-share duration and consumes
  // bandwidth; only the payload is lost (EIO at completion).
  EXPECT_EQ(result.status, pfs::TransferStatus::Faulted);
  EXPECT_FALSE(result.ok());
  EXPECT_NEAR(result.end, 5.0, 1e-9);
  EXPECT_EQ(link.bytesMoved(pfs::Channel::Write), 500u);
  EXPECT_EQ(link.resolveStats(pfs::Channel::Write).faulted_transfers, 1u);
}

TEST(FaultLink, RejectsInvalidFaultInputs) {
  sim::Simulation sim;
  // Factors, fractions and windows are the plan's to validate (see
  // FaultPlan.RejectsBadInputs); the install time is the link's.
  fault::FaultPlan past;
  past.degradeChannel(pfs::Channel::Write, 0.5, {1.0, 9.0});
  fault::FaultPlan future;
  future.addBlackout({6.0, 7.0});
  pfs::SharedLink link(sim, smallLink());
  // Windows must not start in the past; a rejected plan leaves the link
  // free to take another.
  auto proc = [&]() -> sim::Task<void> {
    co_await sim.delay(5.0);
    EXPECT_THROW(link.installFaultPlan(past), CheckError);
    link.installFaultPlan(future);
    EXPECT_THROW(link.installFaultPlan(future), CheckError);
  };
  sim.spawn(proc());
  sim.run();
  // The blackout's two edges only: the rejected plan scheduled none.
  EXPECT_EQ(link.resolveStats(pfs::Channel::Write).capacity_edges, 2u);
}

// --- Determinism and null-plan equivalence --------------------------------

struct LinkRunOutcome {
  std::vector<pfs::TransferResult> results;
  Bytes bytes_moved = 0;
  std::uint64_t executed = 0;
  std::uint64_t lazy_skipped = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t faulted = 0;
  std::uint64_t capacity_edges = 0;
};

// A little contention scenario: five staggered transfers over two streams on
// a noisy link, optionally under a fault plan.
LinkRunOutcome runLinkScenario(const fault::FaultPlan* plan) {
  sim::Simulation sim;
  pfs::LinkConfig cfg = smallLink();
  cfg.noise_sigma = 0.3;  // exercise the per-transfer RNG path too
  cfg.seed = 11;
  pfs::SharedLink link(sim, cfg);
  const auto a = link.createStream("a");
  const auto b = link.createStream("b", 2.0);
  if (plan != nullptr) link.installFaultPlan(*plan);
  LinkRunOutcome out;
  out.results.resize(5);
  sim.spawn(transferAt(sim, link, a, 0.0, 400, out.results[0]));
  sim.spawn(transferAt(sim, link, b, 1.0, 600, out.results[1]));
  sim.spawn(transferAt(sim, link, a, 2.5, 300, out.results[2]));
  sim.spawn(transferAt(sim, link, b, 4.0, 500, out.results[3]));
  sim.spawn(transferAt(sim, link, a, 8.0, 200, out.results[4]));
  sim.run();
  out.bytes_moved = link.bytesMoved(pfs::Channel::Write);
  const auto stats = link.resolveStats(pfs::Channel::Write);
  out.executed = stats.executed;
  out.lazy_skipped = stats.lazy_skipped;
  out.full_solves = stats.full_solves;
  out.faulted = stats.faulted_transfers;
  out.capacity_edges = stats.capacity_edges;
  return out;
}

TEST(FaultLink, NullPlanRunIsByteIdenticalToNoPlanRun) {
  const fault::FaultPlan empty_plan;
  const LinkRunOutcome bare = runLinkScenario(nullptr);
  const LinkRunOutcome with_null = runLinkScenario(&empty_plan);
  ASSERT_EQ(bare.results.size(), with_null.results.size());
  for (std::size_t i = 0; i < bare.results.size(); ++i) {
    // Bit-identical times, not merely close: a null plan must not perturb
    // the float arithmetic of a single resolve.
    EXPECT_EQ(bare.results[i].start, with_null.results[i].start) << i;
    EXPECT_EQ(bare.results[i].end, with_null.results[i].end) << i;
    EXPECT_EQ(bare.results[i].status, with_null.results[i].status) << i;
  }
  EXPECT_EQ(bare.bytes_moved, with_null.bytes_moved);
  EXPECT_EQ(bare.executed, with_null.executed);
  EXPECT_EQ(bare.lazy_skipped, with_null.lazy_skipped);
  EXPECT_EQ(bare.full_solves, with_null.full_solves);
  EXPECT_EQ(with_null.faulted, 0u);
  EXPECT_EQ(with_null.capacity_edges, 0u);
}

TEST(FaultLink, SameSeedAndPlanGiveBitIdenticalRuns) {
  fault::FaultPlan plan(99);
  plan.degradeChannel(pfs::Channel::Write, 0.5, {3.0, 6.0})
      .addTransferFault({.window = {0.0, kInf}, .probability = 0.5});
  const LinkRunOutcome first = runLinkScenario(&plan);
  const LinkRunOutcome second = runLinkScenario(&plan);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].start, second.results[i].start) << i;
    EXPECT_EQ(first.results[i].end, second.results[i].end) << i;
    EXPECT_EQ(first.results[i].status, second.results[i].status) << i;
  }
  EXPECT_EQ(first.faulted, second.faulted);
  EXPECT_EQ(first.capacity_edges, second.capacity_edges);
  EXPECT_EQ(first.executed, second.executed);
  // The plan actually did something in this scenario.
  EXPECT_GT(first.capacity_edges, 0u);
}

// --- AdioEngine / World retry semantics -----------------------------------

throttle::RetryPolicy quickRetry(std::uint32_t max_retries,
                                 Seconds base = 0.1) {
  throttle::RetryPolicy p;
  p.max_retries = max_retries;
  p.base_backoff = base;
  p.multiplier = 2.0;
  p.max_backoff = 1.0;
  return p;
}

TEST(FaultWorld, RetryRidesOutTransientFaultWindow) {
  sim::Simulation sim;
  // Every transfer completing before t=1.5 faults; the first attempt lands
  // at t=1.0, the retried one at ~2.1 (0.1 backoff) and succeeds.
  fault::FaultPlan plan;
  plan.addTransferFault({.window = {0.0, 1.5}, .probability = 1.0});
  pfs::SharedLink link(sim, smallLink());
  link.installFaultPlan(plan);
  pfs::FileStore store;
  mpisim::WorldConfig cfg;
  cfg.ranks = 1;
  cfg.retry = quickRetry(3);
  mpisim::World world(sim, link, store, cfg);
  world.launch([](mpisim::RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    co_await f.writeAt(0, 100, 1);  // blocking: retried inside the engine
    EXPECT_NEAR(ctx.now(), 2.1, 1e-9);
  });
  sim.run();
  EXPECT_EQ(world.failedRanks(), 0);
  EXPECT_EQ(world.ioStats().retries, 1u);
  EXPECT_EQ(world.ioStats().failures, 0u);
}

TEST(FaultWorld, AsyncFailureIsErrorInStatusNotAThrow) {
  sim::Simulation sim;
  fault::FaultPlan plan;
  plan.addTransferFault({.probability = 1.0});  // every attempt faults
  pfs::SharedLink link(sim, smallLink());
  link.installFaultPlan(plan);
  pfs::FileStore store;
  mpisim::WorldConfig cfg;
  cfg.ranks = 1;
  cfg.retry = quickRetry(2, 0.01);
  mpisim::World world(sim, link, store, cfg);
  world.launch([](mpisim::RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    auto req = co_await f.iwriteAt(0, 100, 1);
    co_await ctx.wait(req);  // MPI-style: wait returns, status carries EIO
    EXPECT_TRUE(req.failed());
    EXPECT_EQ(req.error(), mpisim::IoError::RetriesExhausted);
    co_await ctx.compute(1.0);  // the rank carries on
  });
  sim.run();
  EXPECT_EQ(world.failedRanks(), 0);
  EXPECT_EQ(world.ioStats().retries, 2u);
  EXPECT_EQ(world.ioStats().failures, 1u);
}

TEST(FaultWorld, BlockingFailureFailsTheRankButNotTheRun) {
  sim::Simulation sim;
  fault::FaultPlan plan;
  plan.addTransferFault({.probability = 1.0});
  pfs::SharedLink link(sim, smallLink());
  link.installFaultPlan(plan);
  pfs::FileStore store;
  mpisim::WorldConfig cfg;
  cfg.ranks = 2;
  // No retries: the first faulted attempt exhausts the (empty) budget.
  mpisim::World world(sim, link, store, cfg);
  world.launch([](mpisim::RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out." + std::to_string(ctx.rank()));
    if (ctx.rank() == 0) {
      co_await f.writeAt(0, 100, 1);  // throws IoFailure inside the rank
      ADD_FAILURE() << "blocking write should have thrown";
    } else {
      co_await ctx.compute(5.0);  // the healthy rank finishes its program
    }
  });
  sim.run();  // the failure is contained: run() itself completes
  EXPECT_EQ(world.failedRanks(), 1);
  EXPECT_TRUE(world.rankCtx(0).failed());
  EXPECT_FALSE(world.rankCtx(1).failed());
  EXPECT_EQ(world.ioStats().failures, 1u);
}

TEST(FaultWorld, AbortCancelsQueuedRequestsAndReleasesWaiters) {
  sim::Simulation sim;
  pfs::SharedLink link(sim, smallLink());
  pfs::FileStore store;
  mpisim::WorldConfig cfg;
  cfg.ranks = 1;
  mpisim::World world(sim, link, store, cfg);
  world.launch([](mpisim::RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    auto in_flight = co_await f.iwriteAt(0, 1000, 1);  // 10 s on the wire
    // Yield so the I/O thread dequeues the first request and puts it on the
    // wire before the second one lands behind it.
    co_await ctx.compute(0.1);
    auto queued = co_await f.iwriteAt(0, 500, 2);  // still in the mailbox
    ctx.engine().abort();
    // The queued request is failed immediately; its waiter does not block.
    co_await ctx.wait(queued);
    EXPECT_TRUE(queued.failed());
    EXPECT_EQ(queued.error(), mpisim::IoError::Cancelled);
    EXPECT_LT(ctx.now(), 1.0);
    // The in-flight operation runs to completion.
    co_await ctx.wait(in_flight);
    EXPECT_FALSE(in_flight.failed());
    EXPECT_NEAR(ctx.now(), 10.0, 1e-9);
    EXPECT_EQ(ctx.ioStats().cancelled, 1u);
  });
  sim.run();
}

}  // namespace
}  // namespace iobts
