// Streaming-drain and span-stat tests: the binary writer attached to a
// small ring must receive every event exactly once (no overwrite-oldest
// loss), attaching after a wrap must keep the drop accounting, journey
// sampling must never record the id-0 sentinel, and the sink's
// exportMetrics must surface drop accounting and per-span duration
// histograms.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "util/units.hpp"

namespace iobts {
namespace {

sim::Task<void> smallApp(mpisim::RankCtx& ctx) {
  auto file = ctx.open("/pfs/stream_test." + std::to_string(ctx.rank()));
  mpisim::Request pending;
  for (int loop = 0; loop < 3; ++loop) {
    if (pending.valid()) co_await ctx.wait(pending);
    pending = co_await file.iwriteAt(0, 8 * kMB, /*tag=*/loop + 1);
    co_await ctx.compute(0.5);
  }
  co_await ctx.wait(pending);
}

TEST(TraceSinkMetrics, DroppedEventsAreExported) {
  // Regression for drop-accounting visibility: wrap a tiny ring (no
  // streamer) and check the exported counter matches dropped().
  obs::TraceSinkConfig cfg;
  cfg.capacity = 8;
  obs::TraceSink sink(cfg);
  for (int i = 0; i < 20; ++i) sink.instant("cat", "mark", 1, 0, i * 0.1);
  ASSERT_EQ(sink.dropped(), 12u);
  obs::MetricsRegistry registry;
  sink.exportMetrics(registry);
  EXPECT_EQ(registry.counter("obs.trace.dropped_events"), sink.dropped());
  EXPECT_EQ(registry.counter("obs.trace.recorded_events"), 20u);
  EXPECT_EQ(registry.counter("obs.trace.streamed_events"), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("obs.trace.retained_events"), 8.0);
  EXPECT_DOUBLE_EQ(registry.gauge("obs.trace.capacity"), 8.0);
}

TEST(TraceSinkDrops, OverwriteOldestAccountingWhenNoExporterIsAttached) {
  // Satellite contract for drop accounting: an unattached ring that wraps
  // keeps the *newest* capacity events, counts every overwritten one, and
  // recorded == retained + dropped exactly (streamed stays 0).
  obs::TraceSinkConfig cfg;
  cfg.capacity = 8;
  obs::TraceSink sink(cfg);
  for (int i = 0; i < 29; ++i) {  // wraps the ring three and a half times
    sink.instant("cat", "mark", 1, 0, i * 0.1, static_cast<double>(i));
  }
  EXPECT_EQ(sink.recorded(), 29u);
  EXPECT_EQ(sink.dropped(), 21u);
  EXPECT_EQ(sink.streamed(), 0u);
  const std::vector<obs::TraceEvent> kept = sink.snapshot();
  ASSERT_EQ(kept.size(), 8u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_DOUBLE_EQ(kept[i].value, static_cast<double>(21 + i));
  }
}

TEST(TraceSinkDrops, WatermarkDrainPreventsLossDuringBinaryStreamedExport) {
  // The binary writer's drainSegments path on a ring 100x smaller than the
  // burst: the occupancy watermark must drain early enough that nothing is
  // ever overwritten, and the decoded trace holds every event in order.
  obs::TraceSinkConfig cfg;
  cfg.capacity = 16;
  obs::TraceSink sink(cfg);
  std::string bytes;
  {
    obs::BinaryTraceWriter writer(sink, &bytes);
    for (int i = 0; i < 1600; ++i) {
      sink.complete("cat", "span", 1, 0, i * 0.001, 0.0005,
                    static_cast<double>(i));
    }
    EXPECT_TRUE(writer.close());
    EXPECT_GT(writer.batches(), 100u);
  }
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.streamed(), 1600u);
  const obs::BinaryTrace trace = obs::decodeBinaryTrace(bytes, "<memory>");
  ASSERT_EQ(trace.events.size(), 1600u);
  EXPECT_EQ(trace.totals.dropped, 0u);
  for (int i = 0; i < 1600; ++i) {
    EXPECT_DOUBLE_EQ(trace.events[static_cast<std::size_t>(i)].value,
                     static_cast<double>(i));
  }
}

TEST(TraceSinkDrops, ExporterAttachedAfterWrapDrainsNewestWindowAndKeepsDropCount) {
  // Overwrite-oldest happened *before* any exporter existed: attaching the
  // binary writer afterwards must stream exactly the retained (newest)
  // window, leave the drop counter intact, and the footer must carry all
  // three totals so the offline profiler reports the loss.
  obs::TraceSinkConfig cfg;
  cfg.capacity = 8;
  obs::TraceSink sink(cfg);
  for (int i = 0; i < 20; ++i) {
    sink.instant("cat", "mark", 1, 0, i * 0.1, static_cast<double>(i));
  }
  ASSERT_EQ(sink.dropped(), 12u);
  std::string bytes;
  {
    obs::BinaryTraceWriter writer(sink, &bytes);
    EXPECT_TRUE(writer.close());
  }
  EXPECT_EQ(sink.dropped(), 12u);  // attach/drain must not touch the count
  EXPECT_EQ(sink.streamed(), 8u);
  const obs::BinaryTrace trace = obs::decodeBinaryTrace(bytes, "<memory>");
  ASSERT_EQ(trace.events.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(trace.events[i].value, static_cast<double>(12 + i));
  }
  EXPECT_EQ(trace.totals.recorded, 20u);
  EXPECT_EQ(trace.totals.dropped, 12u);
  EXPECT_EQ(trace.totals.streamed, 8u);
}

TEST(TraceSinkDrops, JourneySamplingSentinelNeverEmitsFlowIdZero) {
  // journey=0 is the "no journey" sentinel: every flow edge a run records
  // carries a real journey id, never 0 (which would glue unrelated requests
  // into one mega-journey).
  obs::TraceSinkConfig cfg;
  cfg.capacity = 64;
  obs::TraceSink sink(cfg);
  std::string bytes;
  obs::BinaryTraceWriter writer(sink, &bytes);
  obs::ScopedTraceSink install(sink);
  sim::Simulation sim;
  pfs::LinkConfig link_cfg;
  link_cfg.read_capacity = 5e9;
  link_cfg.write_capacity = 5e9;
  pfs::SharedLink link(sim, link_cfg);
  pfs::FileStore store;
  mpisim::WorldConfig world_cfg;
  world_cfg.ranks = 2;
  mpisim::World world(sim, link, store, world_cfg);
  world.launch(smallApp);
  sim.run();
  EXPECT_TRUE(writer.close());
  EXPECT_EQ(sink.dropped(), 0u);
  std::size_t flows = 0;
  for (const obs::BinEvent& ev :
       obs::decodeBinaryTrace(bytes, "<memory>").events) {
    if (ev.phase == obs::Phase::FlowStart ||
        ev.phase == obs::Phase::FlowStep || ev.phase == obs::Phase::FlowEnd) {
      ++flows;
      EXPECT_NE(ev.flow, 0u) << "flow event recorded with the sentinel id";
    }
  }
  EXPECT_GT(flows, 0u);
}

TEST(TraceSinkMetrics, ClearKeepsSpanStatsAndCounters) {
  obs::TraceSink sink;
  sink.complete("cat", "span", 1, 0, 0.0, 1e-3);
  sink.clear();
  obs::MetricsRegistry registry;
  sink.exportMetrics(registry);
  EXPECT_EQ(registry.counter("obs.trace.recorded_events"), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("obs.trace.retained_events"), 0.0);
}

}  // namespace
}  // namespace iobts
