#include "tmio/tracer.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "tmio/report.hpp"
#include "util/check.hpp"

namespace iobts::tmio {
namespace {

using mpisim::RankCtx;
using mpisim::Request;
using mpisim::World;
using mpisim::WorldConfig;

struct TracedRun {
  explicit TracedRun(TracerConfig tracer_cfg = {}, WorldConfig world_cfg = {},
                     pfs::LinkConfig link_cfg = defaultLink())
      : tracer(tracer_cfg),
        link(sim, link_cfg),
        world(sim, link, store, world_cfg, &tracer) {
    tracer.attach(world);
  }

  static pfs::LinkConfig defaultLink() {
    pfs::LinkConfig cfg;
    cfg.read_capacity = 100.0;
    cfg.write_capacity = 100.0;
    return cfg;
  }

  void run(World::RankProgram program) {
    world.launch(std::move(program));
    sim.run();
  }

  sim::Simulation sim;
  Tracer tracer;
  pfs::SharedLink link;
  pfs::FileStore store;
  World world;
};

TracerConfig noLimits() {
  TracerConfig cfg;
  cfg.strategy = StrategyKind::None;
  cfg.overhead = {};  // keep defaults
  cfg.overhead.intercept_per_call = 0.0;
  cfg.overhead.finalize_base = 0.0;
  cfg.overhead.finalize_per_stage = 0.0;
  cfg.overhead.finalize_per_record = 0.0;
  cfg.overhead.finalize_per_rank = 0.0;
  return cfg;
}

// The canonical single-phase pattern of Fig. 3: iwrite, compute, wait.
sim::Task<void> onePhase(RankCtx& ctx) {
  auto f = ctx.open("/out." + std::to_string(ctx.rank()));
  auto req = co_await f.iwriteAt(0, 100, 1);
  co_await ctx.compute(4.0);
  co_await ctx.wait(req);
}

TEST(Tracer, RequiredBandwidthEq1) {
  TracedRun t(noLimits());
  t.run(onePhase);
  ASSERT_EQ(t.tracer.phaseRecords().size(), 1u);
  const PhaseRecord& p = t.tracer.phaseRecords()[0];
  EXPECT_EQ(p.rank, 0);
  EXPECT_EQ(p.phase, 0);
  EXPECT_DOUBLE_EQ(p.ts, 0.0);
  EXPECT_DOUBLE_EQ(p.te, 4.0);  // wait reached after the 4 s compute
  EXPECT_EQ(p.bytes, 100u);
  // B = 100 B / 4 s = 25 B/s.
  EXPECT_DOUBLE_EQ(p.required, 25.0);
}

TEST(Tracer, ThroughputEq2UsesIoThreadWindow) {
  TracedRun t(noLimits());
  t.run(onePhase);
  ASSERT_EQ(t.tracer.throughputRecords().size(), 1u);
  const ThroughputRecord& rec = t.tracer.throughputRecords()[0];
  // I/O ran at the link's 100 B/s for 1 s starting immediately.
  EXPECT_DOUBLE_EQ(rec.start, 0.0);
  EXPECT_DOUBLE_EQ(rec.end, 1.0);
  EXPECT_DOUBLE_EQ(rec.throughput, 100.0);
}

TEST(Tracer, MultiRequestPhaseSumsBandwidths) {
  TracedRun t(noLimits());
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    auto r1 = co_await f.iwriteAt(0, 100, 1);    // submit at t=0
    co_await ctx.compute(1.0);
    auto r2 = co_await f.iwriteAt(100, 100, 1);  // submit at t=1
    co_await ctx.compute(3.0);                   // wait reached at t=4
    co_await ctx.wait(r1);
    co_await ctx.wait(r2);
  });
  ASSERT_EQ(t.tracer.phaseRecords().size(), 1u);
  const PhaseRecord& p = t.tracer.phaseRecords()[0];
  EXPECT_EQ(p.requests, 2);
  EXPECT_EQ(p.bytes, 200u);
  // Sum of per-request bandwidths: 100/4 + 100/3.
  EXPECT_NEAR(p.required, 100.0 / 4.0 + 100.0 / 3.0, 1e-9);
}

TEST(Tracer, FirstWaitEndsPhaseEarly) {
  // With FirstWait (paper default) te is the first matching wait, giving a
  // higher B than LastWait.
  auto run_mode = [](PhaseEndMode mode) {
    TracerConfig cfg = noLimits();
    cfg.phase_end = mode;
    TracedRun t(cfg);
    t.run([](RankCtx& ctx) -> sim::Task<void> {
      auto f = ctx.open("/out");
      auto r1 = co_await f.iwriteAt(0, 100, 1);
      auto r2 = co_await f.iwriteAt(100, 100, 1);
      co_await ctx.compute(4.0);
      co_await ctx.wait(r1);       // t = 4
      co_await ctx.compute(2.0);
      co_await ctx.wait(r2);       // t = 6
    });
    return t.tracer.phaseRecords().at(0);
  };
  const PhaseRecord first = run_mode(PhaseEndMode::FirstWait);
  const PhaseRecord last = run_mode(PhaseEndMode::LastWait);
  EXPECT_DOUBLE_EQ(first.te, 4.0);
  EXPECT_DOUBLE_EQ(last.te, 6.0);
  EXPECT_GT(first.required, last.required);
}

TEST(Tracer, PhasesProgressAcrossLoops) {
  TracedRun t(noLimits());
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    Request pending;
    for (int loop = 0; loop < 3; ++loop) {
      if (pending.valid()) co_await ctx.wait(pending);
      pending = co_await f.iwriteAt(loop * 100, 100, 1);
      co_await ctx.compute(2.0);
    }
    co_await ctx.wait(pending);
  });
  ASSERT_EQ(t.tracer.phaseRecords().size(), 3u);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(t.tracer.phaseRecords()[j].phase, j);
    EXPECT_NEAR(t.tracer.phaseRecords()[j].required, 100.0 / 2.0, 1e-6);
  }
}

TEST(Tracer, DirectStrategyAppliesLimitToNextPhase) {
  TracerConfig cfg = noLimits();
  cfg.strategy = StrategyKind::Direct;
  cfg.params.tolerance = 2.0;
  WorldConfig wcfg;
  wcfg.pacer.subrequest_size = 10;
  TracedRun t(cfg, wcfg);
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    // Phase 0: B = 100/4 = 25 -> limit 50 applied afterwards.
    auto r1 = co_await f.iwriteAt(0, 100, 1);
    co_await ctx.compute(4.0);
    co_await ctx.wait(r1);
    EXPECT_TRUE(ctx.ioLimit().has_value());
    EXPECT_DOUBLE_EQ(ctx.ioLimit().value(), 50.0);
    // Phase 1 runs under the 50 B/s limit: 100 B -> 2 s of paced I/O.
    auto r2 = co_await f.iwriteAt(100, 100, 1);
    co_await ctx.compute(4.0);
    co_await ctx.wait(r2);
  });
  ASSERT_EQ(t.tracer.limitChanges().size(), 2u);
  EXPECT_DOUBLE_EQ(t.tracer.limitChanges()[0].time, 4.0);
  EXPECT_DOUBLE_EQ(t.tracer.firstLimitTime(), 4.0);
  // Phase 1's record carries the limit that governed it.
  ASSERT_EQ(t.tracer.phaseRecords().size(), 2u);
  EXPECT_FALSE(t.tracer.phaseRecords()[0].applied_limit.has_value());
  ASSERT_TRUE(t.tracer.phaseRecords()[1].applied_limit.has_value());
  EXPECT_DOUBLE_EQ(*t.tracer.phaseRecords()[1].applied_limit, 50.0);
  // And the paced throughput obeyed it.
  ASSERT_EQ(t.tracer.throughputRecords().size(), 2u);
  EXPECT_NEAR(t.tracer.throughputRecords()[1].throughput, 50.0, 1e-6);
}

TEST(Tracer, ApplyLimitsFalseTracesOnly) {
  TracerConfig cfg = noLimits();
  cfg.strategy = StrategyKind::Direct;
  cfg.apply_limits = false;
  TracedRun t(cfg);
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    for (int j = 0; j < 2; ++j) {
      auto r = co_await f.iwriteAt(j * 100, 100, 1);
      co_await ctx.compute(4.0);
      co_await ctx.wait(r);
      EXPECT_FALSE(ctx.ioLimit().has_value());
    }
  });
  EXPECT_TRUE(t.tracer.limitChanges().empty());
  EXPECT_EQ(t.tracer.phaseRecords().size(), 2u);
  EXPECT_LT(t.tracer.firstLimitTime(), 0.0);  // kNoTime
}

TEST(Tracer, ExploitAndLostClassification) {
  TracedRun t(noLimits());
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    // Fully hidden write: 1 s I/O inside a 4 s window.
    auto r1 = co_await f.iwriteAt(0, 100, 1);
    co_await ctx.compute(4.0);
    co_await ctx.wait(r1);
    // Partially hidden write: 3 s of I/O, window only 1 s -> 2 s lost.
    auto r2 = co_await f.iwriteAt(100, 300, 1);
    co_await ctx.compute(1.0);
    co_await ctx.wait(r2);
  });
  const AsyncTimeSplit& split = t.tracer.rankSplit(0);
  EXPECT_NEAR(split.write_exploit, 1.0 + 1.0, 1e-9);  // hidden portions
  EXPECT_NEAR(split.write_lost, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(split.read_lost, 0.0);
}

TEST(Tracer, SyncTimesRecordedPerChannel) {
  TracedRun t(noLimits());
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    co_await f.writeAt(0, 200, 1);  // 2 s visible write
    co_await f.readAt(0, 100);      // 1 s visible read
  });
  const AsyncTimeSplit& split = t.tracer.rankSplit(0);
  EXPECT_NEAR(split.sync_write, 2.0, 1e-9);
  EXPECT_NEAR(split.sync_read, 1.0, 1e-9);
}

TEST(Tracer, AppSeriesAggregatesRanks) {
  TracerConfig cfg = noLimits();
  WorldConfig wcfg;
  wcfg.ranks = 4;
  pfs::LinkConfig link;
  link.read_capacity = 1e6;  // fast link: windows dominated by compute
  link.write_capacity = 1e6;
  TracedRun t(cfg, wcfg, link);
  t.run(onePhase);
  const StepSeries B = t.tracer.appRequiredSeries();
  // Four overlapping phases, each B = 25 B/s -> peak 100 B/s.
  EXPECT_NEAR(B.maxValue(), 100.0, 1e-6);
  EXPECT_NEAR(t.tracer.minimalRequiredBandwidth(), 100.0, 1e-6);
}

TEST(Tracer, AppSeriesChannelFilter) {
  TracedRun t(noLimits());
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    auto w = co_await f.iwriteAt(0, 100, 1);
    co_await ctx.compute(2.0);
    co_await ctx.wait(w);
    auto r = co_await f.ireadAt(0, 100);
    co_await ctx.compute(2.0);
    co_await ctx.wait(r);
  });
  EXPECT_NEAR(t.tracer.appRequiredSeries(pfs::Channel::Write).maxValue(), 50.0,
              1e-6);
  EXPECT_NEAR(t.tracer.appRequiredSeries(pfs::Channel::Read).maxValue(), 50.0,
              1e-6);
  EXPECT_EQ(t.tracer.appLimitSeries().size(), 0u);  // no limits applied
}

TEST(Tracer, OverheadModelChargesPeriAndPost) {
  TracerConfig cfg;
  cfg.strategy = StrategyKind::None;
  cfg.overhead.intercept_per_call = 0.01;
  cfg.overhead.finalize_base = 0.5;
  cfg.overhead.finalize_per_stage = 0.0;
  cfg.overhead.finalize_per_record = 0.0;
  cfg.overhead.finalize_per_rank = 0.0;
  TracedRun t(cfg);
  t.run(onePhase);
  const mpisim::RankTimes& times = t.world.rankTimes(0);
  // Two intercepted calls: iwrite + wait.
  EXPECT_NEAR(times.overhead_peri, 0.02, 1e-9);
  EXPECT_NEAR(times.overhead_post, 0.5, 1e-9);
  const RuntimeSummary summary = runtimeSummary(t.world);
  EXPECT_NEAR(summary.overhead, 0.52, 1e-9);
  EXPECT_NEAR(summary.total, summary.app + summary.overhead, 1e-9);
}

TEST(Tracer, FinalizeOverheadGrowsWithRanks) {
  auto overhead_for = [](int ranks) {
    TracerConfig cfg;
    cfg.overhead.intercept_per_call = 0.0;
    cfg.overhead.finalize_base = 0.0;
    cfg.overhead.finalize_per_stage = 0.1;
    cfg.overhead.finalize_per_record = 0.0;
    cfg.overhead.finalize_per_rank = 0.0;
    WorldConfig wcfg;
    wcfg.ranks = ranks;
    pfs::LinkConfig link;
    link.read_capacity = 1e9;
    link.write_capacity = 1e9;
    TracedRun t(cfg, wcfg, link);
    t.run([](RankCtx& ctx) -> sim::Task<void> { co_await ctx.compute(0.1); });
    return t.world.rankTimes(0).overhead_post;
  };
  EXPECT_LT(overhead_for(1), overhead_for(16));
  EXPECT_LT(overhead_for(16), overhead_for(256));
}

TEST(Tracer, ReportBreakdownsSumTo100) {
  TracerConfig cfg = noLimits();
  WorldConfig wcfg;
  wcfg.ranks = 2;
  TracedRun t(cfg, wcfg);
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out." + std::to_string(ctx.rank()));
    co_await f.writeAt(0, 50, 1);
    auto r = co_await f.iwriteAt(50, 100, 1);
    co_await ctx.compute(1.0);
    co_await ctx.wait(r);
  });
  const ExploitBreakdown e = exploitBreakdown(t.tracer, t.world);
  const double esum = e.sync_write + e.sync_read + e.async_write_lost +
                      e.async_read_lost + e.async_write_exploit +
                      e.async_read_exploit + e.compute_io_free;
  EXPECT_NEAR(esum, 100.0, 1e-6);
  const VisibleBreakdown v = visibleBreakdown(t.world);
  EXPECT_NEAR(v.overhead_peri + v.overhead_post + v.visible_io + v.compute,
              100.0, 1e-6);
}

TEST(Tracer, JsonlAndCsvOutputs) {
  const auto dir = std::filesystem::temp_directory_path() / "iobts_tmio_test";
  std::filesystem::create_directories(dir);
  TracerConfig cfg = noLimits();
  cfg.strategy = StrategyKind::UpOnly;
  TracedRun t(cfg);
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    for (int j = 0; j < 2; ++j) {
      auto r = co_await f.iwriteAt(j * 100, 100, 1);
      co_await ctx.compute(2.0);
      co_await ctx.wait(r);
    }
  });
  const std::string jsonl = (dir / "trace.jsonl").string();
  EXPECT_TRUE(t.tracer.writeJsonl(jsonl));
  EXPECT_TRUE(t.tracer.writeCsv((dir / "trace").string()));
  std::ifstream in(jsonl);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  // 2 phases + 2 throughput windows + 1+ limit changes.
  EXPECT_GE(lines, 5);
  EXPECT_TRUE(std::filesystem::exists(dir / "trace_phases.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir / "trace_throughput.csv"));
  std::filesystem::remove_all(dir);
}

TEST(Tracer, RecordWritersReportAnUnwritablePath) {
  TracedRun t(noLimits());
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    co_await f.writeAt(0, 100, 1);
  });
  const auto missing = std::filesystem::temp_directory_path() /
                       "iobts_tmio_test_missing" / "no_such_dir";
  std::filesystem::remove_all(missing.parent_path());
  EXPECT_FALSE(t.tracer.writeJsonl((missing / "trace.jsonl").string()));
  EXPECT_FALSE(t.tracer.writeCsv((missing / "trace").string()));
  EXPECT_FALSE(std::filesystem::exists(missing.parent_path()));
}

TEST(Tracer, AttachValidatesHooksWiring) {
  sim::Simulation sim;
  pfs::SharedLink link(sim, TracedRun::defaultLink());
  pfs::FileStore store;
  Tracer tracer({});
  World world(sim, link, store, {});  // hooks NOT set to tracer
  EXPECT_THROW(tracer.attach(world), CheckError);
}

TEST(Tracer, UnwaitedRequestsCountAsExploitAtFinalize) {
  TracedRun t(noLimits());
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/out");
    (void)co_await f.iwriteAt(0, 100, 1);  // drained at finalize, 1 s I/O
    co_return;
  });
  EXPECT_NEAR(t.tracer.rankSplit(0).write_exploit, 1.0, 1e-9);
}

TEST(Tracer, UnwaitedReadCountsAsReadExploitAtFinalize) {
  TracedRun t(noLimits());
  t.run([](RankCtx& ctx) -> sim::Task<void> {
    auto f = ctx.open("/in");
    (void)co_await f.ireadAt(0, 100);  // drained at finalize, 1 s I/O
    co_return;
  });
  EXPECT_NEAR(t.tracer.rankSplit(0).read_exploit, 1.0, 1e-9);
  EXPECT_EQ(t.tracer.rankSplit(0).write_exploit, 0.0);
}

// The runtime numbers a rank's requests upwards, but the hooks accept any
// order: an out-of-order id must still be found, and a duplicate id is
// ignored (one live entry per id).
TEST(Tracer, LiveRequestsAreFoundByIdInAnySubmitOrder) {
  TracedRun t(noLimits());
  const auto request = [](std::uint64_t id, sim::Time io_end) {
    mpisim::RequestInfo info;
    info.id = id;
    info.rank = 0;
    info.op = mpisim::IoOp::IWriteAt;
    info.bytes = 100;
    info.submit_time = 0.0;
    info.io_start = 0.0;
    info.io_end = io_end;
    return info;
  };
  t.tracer.onSubmit(request(5, 2.0));
  t.tracer.onSubmit(request(3, 1.0));  // below the newest live id
  t.tracer.onSubmit(request(3, 1.0));  // duplicate: ignored
  t.tracer.onComplete(request(3, 1.0));
  t.tracer.onComplete(request(5, 2.0));
  t.tracer.onFinalize(0);
  // Both unwaited requests count once each: 1 s + 2 s.
  EXPECT_DOUBLE_EQ(t.tracer.rankSplit(0).write_exploit, 3.0);
}

}  // namespace
}  // namespace iobts::tmio
