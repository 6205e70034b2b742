#include "pfs/shared_link.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace iobts::pfs {
namespace {


// Free coroutine helpers: parameters are copied into the coroutine frame, so
// they stay valid however long the process runs (a loop-local capturing
// lambda would dangle once the loop iterates).
sim::Task<void> oneTransfer(SharedLink& link, StreamId stream, Bytes bytes,
                            int& done) {
  co_await link.transfer(Channel::Write, stream, bytes);
  ++done;
}

sim::Task<void> backgroundWriter(sim::Simulation& sim, SharedLink& link,
                                 StreamId stream, bool paced) {
  for (int k = 0; k < 50; ++k) {
    co_await link.transfer(Channel::Write, stream, 20);
    if (paced) co_await sim.delay(5.0);
  }
}

LinkConfig smallLink() {
  LinkConfig cfg;
  cfg.read_capacity = 100.0;   // 100 B/s -- keeps the math readable
  cfg.write_capacity = 100.0;
  return cfg;
}

TEST(SharedLink, SingleTransferRunsAtFullCapacity) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s = link.createStream("rank0");
  TransferResult result;
  auto proc = [&]() -> sim::Task<void> {
    result = co_await link.transfer(Channel::Write, s, 500);
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_DOUBLE_EQ(result.duration(), 5.0);
  EXPECT_DOUBLE_EQ(result.averageRate(), 100.0);
  EXPECT_EQ(link.bytesMoved(Channel::Write), 500u);
  EXPECT_EQ(link.streamBytes(s), 500u);
}

TEST(SharedLink, ZeroByteTransferCompletesInstantly) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s = link.createStream("rank0");
  TransferResult result;
  auto proc = [&]() -> sim::Task<void> {
    result = co_await link.transfer(Channel::Write, s, 0);
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_DOUBLE_EQ(result.duration(), 0.0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(SharedLink, TwoEqualTransfersShareCapacity) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s0 = link.createStream("a");
  const auto s1 = link.createStream("b");
  std::vector<TransferResult> results(2);
  auto proc = [&](int i, StreamId s) -> sim::Task<void> {
    results[i] = co_await link.transfer(Channel::Write, s, 500);
  };
  sim.spawn(proc(0, s0));
  sim.spawn(proc(1, s1));
  sim.run();
  // Both run at 50 B/s for the whole time: 10 s each.
  EXPECT_DOUBLE_EQ(results[0].duration(), 10.0);
  EXPECT_DOUBLE_EQ(results[1].duration(), 10.0);
}

TEST(SharedLink, LateJoinerSlowsTheFirst) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s0 = link.createStream("a");
  const auto s1 = link.createStream("b");
  TransferResult r0, r1;
  auto first = [&]() -> sim::Task<void> {
    r0 = co_await link.transfer(Channel::Write, s0, 1000);
  };
  auto second = [&]() -> sim::Task<void> {
    co_await sim.delay(5.0);
    r1 = co_await link.transfer(Channel::Write, s1, 250);
  };
  sim.spawn(first());
  sim.spawn(second());
  sim.run();
  // First: 5 s at 100 (500 B), then shares at 50 until the second's 250 B
  // drain (5 s), then 100 again for the final 250 B (2.5 s) -> ends at 12.5.
  EXPECT_DOUBLE_EQ(r1.start, 5.0);
  EXPECT_NEAR(r1.duration(), 5.0, 1e-9);
  EXPECT_NEAR(r0.duration(), 12.5, 1e-9);
}

TEST(SharedLink, ReadAndWriteChannelsIndependent) {
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.read_capacity = 200.0;
  cfg.write_capacity = 100.0;
  SharedLink link(sim, cfg);
  const auto s = link.createStream("a");
  TransferResult rd, wr;
  auto reader = [&]() -> sim::Task<void> {
    rd = co_await link.transfer(Channel::Read, s, 1000);
  };
  auto writer = [&]() -> sim::Task<void> {
    wr = co_await link.transfer(Channel::Write, s, 1000);
  };
  sim.spawn(reader());
  sim.spawn(writer());
  sim.run();
  EXPECT_DOUBLE_EQ(rd.duration(), 5.0);    // 1000 / 200
  EXPECT_DOUBLE_EQ(wr.duration(), 10.0);   // 1000 / 100
}

TEST(SharedLink, StreamCapLimitsThroughput) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s = link.createStream("capped");
  link.setStreamCap(s, 20.0);
  TransferResult r;
  auto proc = [&]() -> sim::Task<void> {
    r = co_await link.transfer(Channel::Write, s, 100);
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_DOUBLE_EQ(r.duration(), 5.0);  // 100 B at 20 B/s
}

TEST(SharedLink, CapSurplusGoesToOthers) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s0 = link.createStream("capped");
  const auto s1 = link.createStream("free");
  link.setStreamCap(s0, 10.0);
  TransferResult r0, r1;
  auto capped = [&]() -> sim::Task<void> {
    r0 = co_await link.transfer(Channel::Write, s0, 100);
  };
  auto free_rider = [&]() -> sim::Task<void> {
    r1 = co_await link.transfer(Channel::Write, s1, 450);
  };
  sim.spawn(capped());
  sim.spawn(free_rider());
  sim.run();
  // Capped runs at 10 for 10 s; free gets 90 for 5 s -> done, then capped
  // alone still capped at 10.
  EXPECT_NEAR(r1.duration(), 5.0, 1e-9);
  EXPECT_NEAR(r0.duration(), 10.0, 1e-9);
}

TEST(SharedLink, CapChangeMidTransferTakesEffect) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s = link.createStream("a");
  TransferResult r;
  auto proc = [&]() -> sim::Task<void> {
    r = co_await link.transfer(Channel::Write, s, 1000);
  };
  auto capper = [&]() -> sim::Task<void> {
    co_await sim.delay(5.0);  // 500 B moved at full rate
    link.setStreamCap(s, 25.0);
  };
  sim.spawn(proc());
  sim.spawn(capper());
  sim.run();
  // 5 s at 100 + 20 s at 25 = 25 s total.
  EXPECT_NEAR(r.duration(), 25.0, 1e-9);
}

TEST(SharedLink, ClearingCapRestoresFullRate) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s = link.createStream("a");
  link.setStreamCap(s, 10.0);
  TransferResult r;
  auto proc = [&]() -> sim::Task<void> {
    r = co_await link.transfer(Channel::Write, s, 200);
  };
  auto uncapper = [&]() -> sim::Task<void> {
    co_await sim.delay(10.0);  // 100 B at 10 B/s
    link.setStreamCap(s, std::nullopt);
  };
  sim.spawn(proc());
  sim.spawn(uncapper());
  sim.run();
  EXPECT_NEAR(r.duration(), 11.0, 1e-9);  // + 100 B at 100 B/s
}

TEST(SharedLink, WeightedStreamsShareProportionally) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto heavy = link.createStream("heavy", 3.0);
  const auto light = link.createStream("light", 1.0);
  TransferResult rh, rl;
  auto h = [&]() -> sim::Task<void> {
    rh = co_await link.transfer(Channel::Write, heavy, 750);
  };
  auto l = [&]() -> sim::Task<void> {
    rl = co_await link.transfer(Channel::Write, light, 250);
  };
  sim.spawn(h());
  sim.spawn(l());
  sim.run();
  // 75/25 split; both drain at t=10.
  EXPECT_NEAR(rh.duration(), 10.0, 1e-9);
  EXPECT_NEAR(rl.duration(), 10.0, 1e-9);
}

TEST(SharedLink, MultipleTransfersOneStreamShareTheStreamCap) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s = link.createStream("rank");
  link.setStreamCap(s, 40.0);
  std::vector<TransferResult> rs(2);
  auto proc = [&](int i) -> sim::Task<void> {
    rs[i] = co_await link.transfer(Channel::Write, s, 200);
  };
  sim.spawn(proc(0));
  sim.spawn(proc(1));
  sim.run();
  // The two transfers share the 40 B/s stream cap: 20 B/s each -> 10 s.
  EXPECT_NEAR(rs[0].duration(), 10.0, 1e-9);
  EXPECT_NEAR(rs[1].duration(), 10.0, 1e-9);
}

TEST(SharedLink, TotalRateSeriesTracksLoad) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s = link.createStream("a");
  auto proc = [&]() -> sim::Task<void> {
    co_await link.transfer(Channel::Write, s, 500);
  };
  sim.spawn(proc());
  sim.run();
  const auto& series = link.totalRateSeries(Channel::Write);
  EXPECT_DOUBLE_EQ(series.at(2.0), 100.0);
  EXPECT_DOUBLE_EQ(series.at(5.0), 0.0);  // drained
  // Area under the curve equals bytes moved.
  EXPECT_NEAR(series.integrate(0.0, 10.0), 500.0, 1e-6);
}

TEST(SharedLink, StreamSeriesRequiresOptIn) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s = link.createStream("a");
  link.setRecordStream(s, true);
  auto proc = [&]() -> sim::Task<void> {
    co_await link.transfer(Channel::Write, s, 100);
  };
  sim.spawn(proc());
  sim.run();
  const auto& series = link.streamRateSeries(s, Channel::Write);
  EXPECT_DOUBLE_EQ(series.at(0.5), 100.0);
  EXPECT_DOUBLE_EQ(series.at(1.5), 0.0);
}

TEST(SharedLink, ContentionFlag) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s0 = link.createStream("a");
  const auto s1 = link.createStream("b");
  bool contended_mid = false;
  auto both = [&]() -> sim::Task<void> {
    co_await link.transfer(Channel::Write, s0, 400);
  };
  auto probe = [&]() -> sim::Task<void> {
    co_await sim.delay(1.0);
    contended_mid = link.contended(Channel::Write);
  };
  auto other = [&]() -> sim::Task<void> {
    co_await link.transfer(Channel::Write, s1, 400);
  };
  sim.spawn(both());
  sim.spawn(other());
  sim.spawn(probe());
  sim.run();
  EXPECT_TRUE(contended_mid);
  EXPECT_FALSE(link.contended(Channel::Write));  // drained at the end
}

TEST(SharedLink, SingleStreamIsNotContention) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const auto s0 = link.createStream("a");
  bool contended_mid = true;
  auto t = [&]() -> sim::Task<void> {
    co_await link.transfer(Channel::Write, s0, 400);
  };
  auto probe = [&]() -> sim::Task<void> {
    co_await sim.delay(1.0);
    contended_mid = link.contended(Channel::Write);
  };
  sim.spawn(t());
  sim.spawn(probe());
  sim.run();
  EXPECT_FALSE(contended_mid);
}

TEST(SharedLink, NoiseSlowsTransfersDeterministically) {
  LinkConfig cfg = smallLink();
  cfg.noise_sigma = 0.8;
  cfg.seed = 7;
  auto run_once = [&]() {
    sim::Simulation sim;
    SharedLink link(sim, cfg);
    const auto s = link.createStream("a");
    TransferResult r;
    auto proc = [&]() -> sim::Task<void> {
      r = co_await link.transfer(Channel::Write, s, 1000);
    };
    sim.spawn(proc());
    sim.run();
    return r.duration();
  };
  const double d1 = run_once();
  const double d2 = run_once();
  EXPECT_DOUBLE_EQ(d1, d2);      // same seed -> identical
  EXPECT_GE(d1, 10.0 - 1e-9);   // never faster than capacity
}

TEST(SharedLink, RecomputeQuantumStillMovesAllBytes) {
  LinkConfig cfg = smallLink();
  cfg.recompute_quantum = 0.5;
  sim::Simulation sim;
  SharedLink link(sim, cfg);
  const auto s0 = link.createStream("a");
  const auto s1 = link.createStream("b");
  int done = 0;
  auto proc = [&](StreamId s, Bytes n, sim::Time at) -> sim::Task<void> {
    co_await sim.delay(at);
    co_await link.transfer(Channel::Write, s, n);
    ++done;
  };
  sim.spawn(proc(s0, 300, 0.0));
  sim.spawn(proc(s1, 300, 0.1));  // joins inside the quantum window
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(link.bytesMoved(Channel::Write), 600u);
}

TEST(SharedLink, ManyConcurrentTransfersDrainCompletely) {
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.read_capacity = 1e6;
  cfg.write_capacity = 1e6;
  SharedLink link(sim, cfg);
  constexpr int kN = 200;
  int done = 0;
  for (int i = 0; i < kN; ++i) {
    const auto s = link.createStream(
        std::string("s").append(std::to_string(i)));
    sim.spawn(oneTransfer(link, s, 1000, done));
  }
  sim.run();
  EXPECT_EQ(done, kN);
  EXPECT_EQ(link.bytesMoved(Channel::Write), 1000u * kN);
  // All equal -> all finish together at n*bytes/capacity.
  EXPECT_NEAR(sim.now(), kN * 1000.0 / 1e6, 1e-9);
}

TEST(SharedLink, TenThousandSameInstantCompletionsDrainLinearly) {
  // Regression test for the O(n^2) batch drain: equal-sized transfers on
  // equal-weight streams all complete in the same resolve sweep. The old
  // erase-from-the-middle completion loop made this quadratic in the number
  // of transfers; with the compaction-based sweep it finishes in well under
  // a second even in debug builds.
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.read_capacity = 1e9;
  cfg.write_capacity = 1e9;
  cfg.record_total = false;
  SharedLink link(sim, cfg);
  constexpr int kN = 10000;
  int done = 0;
  for (int i = 0; i < kN; ++i) {
    const auto s = link.createStream(
        std::string("s").append(std::to_string(i)));
    sim.spawn(oneTransfer(link, s, 1000, done));
  }
  sim.run();
  EXPECT_EQ(done, kN);
  EXPECT_EQ(link.bytesMoved(Channel::Write), 1000u * kN);
  EXPECT_EQ(link.activeTransfers(Channel::Write), 0u);
  // Equal shares: all kN transfers drain together at n*bytes/capacity.
  EXPECT_NEAR(sim.now(), kN * 1000.0 / 1e9, 1e-9);
}

TEST(SharedLink, TransferAfterFiftyHoursOnAFastLinkCompletes) {
  // Regression for a livelock at large virtual times: after 1.8e5 s (the
  // paper's 50 WaComM++ hours) one ULP of the clock is ~2.9e-11 s, which an
  // uncapped 1.06e11 B/s transfer covers in ~3 bytes. A transfer left with
  // more than the byte epsilon but less than that had a completion sweep
  // that rounded back onto `now` and reposted itself forever. The step
  // bound makes a regression fail instead of hang.
  for (const bool force_full : {false, true}) {
    SCOPED_TRACE(force_full ? "force_full_resolve" : "lazy resolve");
    sim::Simulation sim;
    LinkConfig cfg;
    cfg.write_capacity = 1.06e11;
    cfg.read_capacity = 1.2e11;
    cfg.force_full_resolve = force_full;
    SharedLink link(sim, cfg);
    const auto s = link.createStream("rank0");
    bool done = false;
    auto proc = [&]() -> sim::Task<void> {
      co_await sim.delay(1.8e5);
      co_await link.transfer(Channel::Write, s, 1 << 20);
      done = true;
    };
    sim.spawn(proc());
    int steps = 0;
    while (!done && steps < 1000 && sim.step()) ++steps;
    ASSERT_TRUE(done) << "transfer still active after " << steps
                      << " steps at t=" << sim.now();
    sim.run();
    EXPECT_EQ(link.bytesMoved(Channel::Write), 1u << 20);
    EXPECT_EQ(link.activeTransfers(Channel::Write), 0u);
  }
}

TEST(SharedLink, UnknownStreamThrows) {
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  EXPECT_THROW(link.setStreamCap(42, 1.0), CheckError);
  EXPECT_THROW(link.streamBytes(42), CheckError);
}

TEST(SharedLink, NonFiniteOrNonPositiveStreamWeightThrowsAtTheCall) {
  // A bad weight is rejected where it is set, not later from inside a
  // resolve callback.
  sim::Simulation sim;
  SharedLink link(sim, smallLink());
  const double inf = std::numeric_limits<double>::infinity();
  for (const double weight : {inf, -inf, std::nan(""), 0.0, -1.0}) {
    EXPECT_THROW(link.createStream("bad", weight), CheckError) << weight;
  }
  EXPECT_EQ(link.streamCount(), 0u);
  const StreamId s = link.createStream("s", 2.0);
  for (const double weight : {inf, -inf, std::nan(""), 0.0, -1.0}) {
    EXPECT_THROW(link.setStreamWeight(s, weight), CheckError) << weight;
  }
  EXPECT_EQ(link.streamWeight(s), 2.0);
  // The largest finite weight is still a weight.
  link.setStreamWeight(s, std::numeric_limits<double>::max());
  int done = 0;
  sim.spawn(oneTransfer(link, s, 100, done));
  sim.run();
  EXPECT_EQ(done, 1);
}

TEST(SharedLink, InvalidConfigThrows) {
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.read_capacity = -1.0;
  EXPECT_THROW(SharedLink(sim, cfg), CheckError);
}


TEST(SharedLink, CongestionReducesAggregateThroughput) {
  LinkConfig cfg = smallLink();
  cfg.congestion_gamma = 0.25;  // 4 concurrent writers -> 100/(1+0.75) B/s
  sim::Simulation sim;
  SharedLink link(sim, cfg);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    const auto s = link.createStream(
        std::string("s").append(std::to_string(i)));
    sim.spawn(oneTransfer(link, s, 100, done));
  }
  sim.run();
  EXPECT_EQ(done, 4);
  // 400 B at an effective 100/1.75 = 57.14 B/s -> 7 s.
  EXPECT_NEAR(sim.now(), 400.0 / (100.0 / 1.75), 1e-9);
}

TEST(SharedLink, CongestionDoesNotAffectLoneTransfer) {
  LinkConfig cfg = smallLink();
  cfg.congestion_gamma = 0.25;
  sim::Simulation sim;
  SharedLink link(sim, cfg);
  const auto s = link.createStream("a");
  TransferResult r;
  auto proc = [&]() -> sim::Task<void> {
    r = co_await link.transfer(Channel::Write, s, 100);
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_DOUBLE_EQ(r.duration(), 1.0);
}

TEST(SharedLink, PacedDutyCycleSeesLessCongestion) {
  // The asymmetry behind the paper's Fig. 10: a paced stream sleeps between
  // sub-requests, lowering the instantaneous concurrency. Here a probe
  // transfer runs against 3 background writers that are either continuous
  // or duty-cycled; the probe finishes faster in the duty-cycled case.
  auto probe_duration = [](bool paced_background) {
    LinkConfig cfg = smallLink();
    cfg.congestion_gamma = 0.5;
    sim::Simulation sim;
    SharedLink link(sim, cfg);
    for (int i = 0; i < 3; ++i) {
      const auto s = link.createStream("bg" + std::to_string(i));
      sim.spawn(backgroundWriter(sim, link, s, paced_background));
    }
    const auto probe_stream = link.createStream("probe");
    double duration = 0.0;
    auto probe = [&]() -> sim::Task<void> {
      const auto r = co_await link.transfer(Channel::Write, probe_stream, 500);
      duration = r.duration();
    };
    sim.spawn(probe());
    sim.run();
    return duration;
  };
  EXPECT_LT(probe_duration(true), probe_duration(false));
}


TEST(SharedLink, ClientRateCapBoundsSingleStream) {
  LinkConfig cfg = smallLink();
  cfg.client_rate_cap = 25.0;  // a single client gets at most a quarter
  sim::Simulation sim;
  SharedLink link(sim, cfg);
  const auto s = link.createStream("a");
  TransferResult r;
  auto proc = [&]() -> sim::Task<void> {
    r = co_await link.transfer(Channel::Write, s, 100);
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_DOUBLE_EQ(r.duration(), 4.0);  // 100 B at 25 B/s
}

TEST(SharedLink, ClientRateCapScalesWithWeight) {
  // A 4-node job (weight 4) can inject 4x the single-client rate.
  LinkConfig cfg = smallLink();
  cfg.client_rate_cap = 20.0;
  sim::Simulation sim;
  SharedLink link(sim, cfg);
  const auto job = link.createStream("job", 4.0);
  TransferResult r;
  auto proc = [&]() -> sim::Task<void> {
    r = co_await link.transfer(Channel::Write, job, 400);
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_DOUBLE_EQ(r.duration(), 5.0);  // 400 B at 80 B/s
}

TEST(SharedLink, ClientCapCombinesWithStreamCap) {
  LinkConfig cfg = smallLink();
  cfg.client_rate_cap = 25.0;
  sim::Simulation sim;
  SharedLink link(sim, cfg);
  const auto s = link.createStream("a");
  link.setStreamCap(s, 10.0);  // tighter than the client cap
  TransferResult r;
  auto proc = [&]() -> sim::Task<void> {
    r = co_await link.transfer(Channel::Write, s, 100);
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_DOUBLE_EQ(r.duration(), 10.0);
}

}  // namespace
}  // namespace iobts::pfs
