// Zero-allocation steady-state gate for the hot paths.
//
// The binary links the counting operator new/delete
// (tests/support/counting_allocator.cpp), so every allocation anywhere in
// the process is counted. Two kinds of probe:
//
//   * steady-state windows -- the event-kernel churn (tracing off and on,
//     and with every event at its own time), the SharedLink resolve path
//     under cap churn with quiescent pokes (the lazy skip), and transfers
//     joining and completing on a noisy link must perform zero allocations
//     once their pools are warm;
//   * growth probes -- a whole one-rank scenario-interpreter run and a
//     whole one-rank MPI-IO run (unpaced, paced, and verifying each
//     extent after its wait) must allocate exactly as often at a small N
//     as at a large N, so no per-statement or per-request allocation can
//     hide in either path. With the TMIO tracer attached, only its record
//     vectors may grow with N.
//
// Each probe reads the counter only around its window; test-framework
// bookkeeping happens outside. The Release ctest and the sanitize phase of
// tools/run_tier1.sh both run this suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "../support/counting_allocator.hpp"
#include "mpisim/world.hpp"
#include "obs/trace.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "tmio/tracer.hpp"
#include "util/units.hpp"

namespace iobts {
namespace {

using testsupport::allocationCount;

// Event kernel: a rolling window of re-posting callbacks past the SBO size,
// so event slots and callback storage are continually recycled. With
// `distinct_times`, chain w runs at 1 + w/4096 + k instead of 1 + k, so no
// two pending events share a time: every push opens a bucket, and a window
// larger than the bucket table makes buckets collide. Returns the
// allocations inside the steady-state window.
std::uint64_t kernelSteadyStateAllocations(int window = 64,
                                           bool distinct_times = false) {
  sim::Simulation sim;
  std::uint64_t fired = 0;
  struct Reposter {
    sim::Simulation* sim;
    std::uint64_t* fired;
    int remaining;
    double pad[3] = {0, 0, 0};  // push capture past any 16-byte SSO
    void operator()() {
      ++*fired;
      if (remaining > 0) {
        Reposter next = *this;
        --next.remaining;
        sim->post(1.0, next);
      }
    }
  };
  constexpr int kReposts = 20000 / 64;
  for (int w = 0; w < window; ++w) {
    const double offset = distinct_times ? w * 0x1p-12 : 0.0;
    sim.post(1.0 + offset, Reposter{&sim, &fired, kReposts});
  }
  sim.runUntil(10.0);  // warm the pools
  const std::uint64_t before = allocationCount();
  sim.runUntil(200.0);
  const std::uint64_t delta = allocationCount() - before;
  sim.run();
  return delta;
}

TEST(AllocationGate, KernelChurnIsAllocationFree) {
  EXPECT_EQ(kernelSteadyStateAllocations(), 0u);
}

TEST(AllocationGate, DistinctTimeKernelChurnIsAllocationFree) {
  const int window = 2 * static_cast<int>(sim::Simulation::kQueueSlots);
  EXPECT_EQ(kernelSteadyStateAllocations(window, /*distinct_times=*/true), 0u);
}

// The same kernel probe with a TraceSink installed: recording is POD stores
// into the preallocated ring, so the steady state must stay allocation-free
// with tracing on, not just off.
TEST(AllocationGate, TracedKernelChurnIsAllocationFree) {
  obs::TraceSink sink;  // ring allocated here, before the probe window
  obs::ScopedTraceSink install(sink);
  EXPECT_EQ(kernelSteadyStateAllocations(), 0u);
  EXPECT_GT(sink.recorded(), 0u) << "traced kernel probe recorded no events "
                                    "(instrumentation missing?)";
}

sim::Task<void> oneTransfer(pfs::SharedLink& link, pfs::StreamId stream,
                            Bytes bytes) {
  co_await link.transfer(pfs::Channel::Write, stream, bytes);
}

// Resolve path: long-lived contended transfers under deterministic cap churn
// (saturating and non-saturating caps, so both fair-share pre-pass branches
// run) interleaved with quiescent pokes (the lazy-skip path). The steady
// state is phase-to-phase: one full phase (transfers + churn + drain) warms
// every pool to its peak -- each input change orphans the previous far-future
// completion sweep, so the pending-event population legitimately grows within
// a phase, bounded by the churn count -- and an identical second phase must
// then allocate nothing at all.
TEST(AllocationGate, ResolveAndPokeChurnIsAllocationFree) {
  sim::Simulation sim;
  pfs::LinkConfig cfg;
  cfg.write_capacity = 100e9;
  cfg.read_capacity = 100e9;
  cfg.record_total = false;
  pfs::SharedLink link(sim, cfg);
  constexpr int kStreams = 128;
  std::vector<pfs::StreamId> streams;
  streams.reserve(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    streams.push_back(link.createStream(
        std::string("s").append(std::to_string(i))));
  }
  auto spawnTransfers = [&] {
    for (const auto s : streams) {
      // Large enough that nothing drains while the churn runs.
      sim.spawn(oneTransfer(link, s, 1000000 * kGiB));
    }
  };
  auto churn = [&]() -> sim::Task<void> {
    // 0.5e9 sits below the uniform fill level 100e9 / 128, so saturating
    // instances (the stable_sort fallback) occur throughout.
    constexpr double kCaps[4] = {0.5e9, 0.9e9, 1.3e9, 1.7e9};
    for (int c = 0; c < 2000; ++c) {
      co_await sim.delay(1e-3);
      if (c % 2 == 0) {
        link.setStreamCap(streams[c % kStreams], kCaps[(c / 2) % 4]);
      } else {
        link.poke(pfs::Channel::Write);
      }
    }
  };

  // Phase 1 (warm-up): full churn, then drain to completion.
  spawnTransfers();
  sim.spawn(churn());
  sim.run();

  // Phase 2 (probe): identical workload; snapshot after the joins so the
  // per-transfer setup (frames, Transfer objects) stays outside the window.
  const sim::Time t0 = sim.now();
  const std::uint64_t skipped_before =
      link.resolveStats(pfs::Channel::Write).lazy_skipped;
  spawnTransfers();
  sim.spawn(churn());
  sim.runUntil(t0 + 0.1);
  const std::uint64_t before = allocationCount();
  sim.runUntil(t0 + 1.9);
  const std::uint64_t delta = allocationCount() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_NE(link.resolveStats(pfs::Channel::Write).lazy_skipped,
            skipped_before)
      << "no lazy-skipped resolve inside the probe window (poke pattern "
         "broken?)";
  sim.run();
}

// Back-to-back transfers of one stream until `until`; with a `period`, each
// transfer starts on the next multiple of it instead.
sim::Task<void> transferLoop(sim::Simulation& sim, pfs::SharedLink& link,
                             pfs::StreamId stream, Bytes bytes,
                             sim::Time until, sim::Time period) {
  while (sim.now() < until) {
    co_await link.transfer(pfs::Channel::Write, stream, bytes);
    if (period > 0.0) {
      const sim::Time next = period * std::ceil(sim.now() / period);
      co_await sim.delay(std::max(0.0, next - sim.now()));
    }
  }
}

// Joins and completions under hacc_noisy's link shape: lognormal noise caps
// around a per-client reference, a client cap and a 5 ms recompute quantum.
// 128 streams run back-to-back transfers, whose noise caps make them drain
// at distinct times, so the transfer table appends, compacts and fires the
// frame-resident records throughout the window. 8 of the streams run a
// second transfer at the start of every 50 ms period, so the solve runs
// both with streams that hold two transfers and with none. Every join
// resolve orphans the pending completion sweep, so the pending-event peak
// varies with the noise draws: the warm-up phase runs the same shape for
// twice as long to reach that peak, and the counted middle of the second
// phase must then allocate nothing.
TEST(AllocationGate, NoisyJoinAndCompleteChurnIsAllocationFree) {
  sim::Simulation sim;
  pfs::LinkConfig cfg;
  cfg.noise_sigma = 0.4;
  cfg.noise_reference_rate = 0.5e9;
  cfg.client_rate_cap = 1.5e9;
  cfg.recompute_quantum = 0.005;
  cfg.record_total = false;
  pfs::SharedLink link(sim, cfg);
  constexpr int kStreams = 128;
  constexpr int kDoubled = 8;
  std::vector<pfs::StreamId> streams;
  streams.reserve(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    streams.push_back(link.createStream(
        std::string("s").append(std::to_string(i))));
  }
  auto spawnPhase = [&](sim::Time until) {
    for (const auto s : streams) {
      sim.spawn(transferLoop(sim, link, s, 4 * kMiB, until, 0.0));
    }
    for (int i = 0; i < kDoubled; ++i) {
      sim.spawn(transferLoop(sim, link, streams[i], 4 * kMiB, until, 0.05));
    }
  };

  // Phase 1 (warm-up).
  spawnPhase(2.0);
  sim.run();

  // Phase 2 (probe): the same shape; the spawns and the first joins stay
  // outside the window.
  const sim::Time t0 = sim.now();
  spawnPhase(t0 + 1.0);
  sim.runUntil(t0 + 0.1);
  const Bytes moved_before = link.bytesMoved(pfs::Channel::Write);
  const std::uint64_t solves_before =
      link.resolveStats(pfs::Channel::Write).full_solves;
  const std::uint64_t before = allocationCount();
  sim.runUntil(t0 + 0.9);
  const std::uint64_t delta = allocationCount() - before;
  EXPECT_EQ(delta, 0u);
  // Over 50 completions per stream on average: the window really churns.
  EXPECT_GT(link.bytesMoved(pfs::Channel::Write) - moved_before,
            kStreams * 50 * 4 * kMiB);
  EXPECT_GT(link.resolveStats(pfs::Channel::Write).full_solves - solves_before,
            1000u);
  sim.run();
}

// Scenario interpreter: allocations of one whole one-rank run, parse through
// sim.run(). The loop body binds, branches and binds again without creating
// events, so only per-statement interpreter allocations can grow with N.
std::uint64_t scenarioRunAllocations(int iterations) {
  const std::string text =
      "scenario \"alloc\"\nworld main { ranks = 1 }\nprogram main {\n"
      "  loop i : " + std::to_string(iterations) +
      " { let x = i * 3  if x % 2 == 0 { let y = x } }\n}\n";
  const std::uint64_t before = allocationCount();
  {
    sim::Simulation sim;
    scenario::Instance instance(sim, scenario::parseScenario(text));
    instance.launch();
    sim.run();
  }
  return allocationCount() - before;
}

TEST(AllocationGate, ScenarioInterpreterAllocationsDoNotGrowWithStatements) {
  scenarioRunAllocations(1);  // warm-up: the parser's static keyword tables
  const std::uint64_t small = scenarioRunAllocations(1'000);
  const std::uint64_t large = scenarioRunAllocations(100'000);
  EXPECT_EQ(small, large) << "allocations at N=1000 vs N=100000";
}

// MPI-IO request path: allocations of one whole one-rank run, construction
// through teardown, with no hooks unless `traced`. Each iteration submits a
// 9 MiB iwrite_at and waits for it; odd iterations compute first, so waits
// on already-completed and on in-flight requests both occur. A `paced` run
// caps the rank at 1 GB/s, which splits every request into three
// sub-requests. A `traced` run attaches a TMIO tracer (Direct strategy) as
// the world's hooks. A `verified` run checks the written extent after each
// wait (HACC-IO's verify block). Only per-request allocations can grow with
// N.
struct MpiIoProbe {
  bool paced = false;
  bool traced = false;
  bool verified = false;
};

std::uint64_t mpiIoRunAllocations(int iterations, MpiIoProbe probe) {
  int verify_failures = 0;
  const std::uint64_t before = allocationCount();
  {
    sim::Simulation sim;
    pfs::LinkConfig link_config;
    link_config.record_total = false;
    pfs::SharedLink link(sim, link_config);
    pfs::FileStore store;
    std::optional<tmio::Tracer> tracer;
    if (probe.traced) {
      tmio::TracerConfig tracer_config;
      tracer_config.strategy = tmio::StrategyKind::Direct;
      tracer.emplace(tracer_config);
    }
    mpisim::World world(sim, link, store, mpisim::WorldConfig{},
                        tracer ? &*tracer : nullptr);
    if (tracer) tracer->attach(world);
    if (probe.paced) world.setRankLimit(0, 1e9);
    world.launch([iterations, probe, &verify_failures](
                     mpisim::RankCtx& ctx) -> sim::Task<void> {
      mpisim::File file = ctx.open("/pfs/probe");
      for (int i = 0; i < iterations; ++i) {
        const auto tag = static_cast<pfs::ContentTag>(i);
        mpisim::Request request = co_await file.iwriteAt(0, 9 * kMiB, tag);
        if (i % 2 == 1) co_await ctx.compute(0.01);
        co_await ctx.wait(request);
        if (probe.verified && !file.verify(0, 9 * kMiB, tag)) {
          ++verify_failures;
        }
      }
    });
    sim.run();
  }
  const std::uint64_t allocations = allocationCount() - before;
  EXPECT_EQ(verify_failures, 0);
  return allocations;
}

void expectMpiIoAllocationsFlat(MpiIoProbe probe) {
  mpiIoRunAllocations(1, probe);  // warm-up: first-use statics
  const std::uint64_t small = mpiIoRunAllocations(1'000, probe);
  const std::uint64_t large = mpiIoRunAllocations(101'000, probe);
  EXPECT_EQ(small, large) << "allocations at N=1000 vs N=101000";
}

TEST(AllocationGate, MpiIoAllocationsDoNotGrowWithRequests) {
  expectMpiIoAllocationsFlat({});
}

TEST(AllocationGate, PacedMpiIoAllocationsDoNotGrowWithRequests) {
  expectMpiIoAllocationsFlat({.paced = true});
}

// Verify walks the file's extents in place: no per-call result vector.
TEST(AllocationGate, VerifiedMpiIoAllocationsDoNotGrowWithRequests) {
  expectMpiIoAllocationsFlat({.verified = true});
}

// The same probe with the tracer attached. Its per-request bookkeeping (live
// requests, phases and their request lists) is recycled, so only the three
// record vectors -- phases, throughputs and limit changes, one record each
// per request here -- grow with N. A vector whose capacity at least doubles
// per reallocation crosses at most ceil(log2(101000 / 1000)) = 7 further
// capacity steps between the two runs; allow 8 per vector, 3 x 8 in all.
// Any per-request allocation would add 100,000.
TEST(AllocationGate, TracedMpiIoAllocationsGrowOnlyWithRecords) {
  mpiIoRunAllocations(1, {.traced = true});  // warm-up
  const std::uint64_t small = mpiIoRunAllocations(1'000, {.traced = true});
  const std::uint64_t large = mpiIoRunAllocations(101'000, {.traced = true});
  EXPECT_GE(large, small);
  EXPECT_LE(large - small, 3u * 8u)
      << "allocations at N=1000: " << small << ", at N=101000: " << large;
}

}  // namespace
}  // namespace iobts
