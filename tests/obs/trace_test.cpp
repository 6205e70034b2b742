#include "obs/trace.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace iobts::obs {
namespace {

TEST(TraceSink, DefaultsOffAndNullCheckCheap) {
  // No sink installed: the global accessor is null and instrumentation
  // points skip all work.
  EXPECT_EQ(traceSink(), nullptr);
}

TEST(TraceSink, RecordsAllThreePhases) {
  TraceSink sink;
  sink.complete("cat", "span", 1, 2, 3.0, 0.5, 7.0);
  sink.instant("cat", "mark", 1, 2, 3.5, 1.0);
  sink.counter("cat", "depth", 1, 0, 4.0, 42.0);

  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, Phase::Complete);
  EXPECT_DOUBLE_EQ(events[0].ts, 3.0);
  EXPECT_DOUBLE_EQ(events[0].dur, 0.5);
  EXPECT_DOUBLE_EQ(events[0].value, 7.0);
  EXPECT_STREQ(events[0].category, "cat");
  EXPECT_STREQ(events[0].name, "span");
  EXPECT_EQ(events[0].pid, 1u);
  EXPECT_EQ(events[0].tid, 2u);
  EXPECT_EQ(events[1].phase, Phase::Instant);
  EXPECT_EQ(events[2].phase, Phase::Counter);
  EXPECT_DOUBLE_EQ(events[2].value, 42.0);
  EXPECT_EQ(sink.recorded(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingWrapsOverwritingOldestAndCountsDrops) {
  TraceSinkConfig cfg;
  cfg.capacity = 8;
  TraceSink sink(cfg);
  for (int i = 0; i < 20; ++i) {
    sink.instant("cat", "ev", 1, 0, static_cast<double>(i));
  }
  EXPECT_EQ(sink.capacity(), 8u);
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.recorded(), 20u);
  EXPECT_EQ(sink.dropped(), 12u);

  // The retained window is the most recent 8 events, oldest first.
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts, static_cast<double>(12 + i));
  }
}

TEST(TraceSink, CapacityClampedToAtLeastOne) {
  TraceSinkConfig cfg;
  cfg.capacity = 0;
  TraceSink sink(cfg);
  EXPECT_EQ(sink.capacity(), 1u);
  sink.instant("cat", "a", 1, 0, 1.0);
  sink.instant("cat", "b", 1, 0, 2.0);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "b");
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceSink, ClearDropsEventsButKeepsTotals) {
  TraceSink sink;
  sink.instant("cat", "a", 1, 0, 1.0);
  sink.instant("cat", "b", 1, 0, 2.0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.recorded(), 2u);
  sink.instant("cat", "c", 1, 0, 3.0);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "c");
}

TEST(TraceSink, WallClockOffByDefaultOnWhenConfigured) {
  TraceSink off;
  EXPECT_FALSE(off.captureWallTime());
  EXPECT_EQ(off.wallNowNs(), 0u);

  TraceSinkConfig cfg;
  cfg.capture_wall_time = true;
  TraceSink on(cfg);
  const auto a = on.wallNowNs();
  const auto b = on.wallNowNs();
  EXPECT_GE(b, a);
}

TEST(TraceSink, TrackNamesRegistered) {
  TraceSink sink;
  sink.setProcessName(track::kLink, "pfs link");
  sink.setThreadName(track::kLink, 1, "write");
  EXPECT_EQ(sink.processNames().at(track::kLink), "pfs link");
  EXPECT_EQ(sink.threadNames().at({track::kLink, 1u}), "write");
}

TEST(ScopedTraceSink, InstallsAndRestoresNested) {
  EXPECT_EQ(traceSink(), nullptr);
  TraceSink outer_sink;
  {
    ScopedTraceSink outer(outer_sink);
    EXPECT_EQ(traceSink(), &outer_sink);
    TraceSink inner_sink;
    {
      ScopedTraceSink inner(inner_sink);
      EXPECT_EQ(traceSink(), &inner_sink);
    }
    EXPECT_EQ(traceSink(), &outer_sink);
  }
  EXPECT_EQ(traceSink(), nullptr);
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.addCounter("a.count", 2);
  reg.addCounter("a.count", 3);
  reg.setGauge("a.gauge", 1.5);
  reg.setGauge("a.gauge", 2.5);  // last write wins
  const std::vector<double> bounds{1.0, 10.0};
  reg.observe("a.hist", 0.5, bounds);
  reg.observe("a.hist", 5.0, bounds);
  reg.observe("a.hist", 100.0, bounds);

  EXPECT_EQ(reg.counter("a.count"), 5u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("a.gauge"), 2.5);
  const Histogram* h = reg.histogram("a.hist");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[1], 1u);
  EXPECT_EQ(h->counts[2], 1u);
  EXPECT_EQ(h->total, 3u);
  EXPECT_DOUBLE_EQ(h->sum, 105.5);
}

TEST(MetricsRegistry, DumpsAreSortedAndStable) {
  MetricsRegistry reg;
  reg.addCounter("z.second", 1);
  reg.addCounter("a.first", 1);
  reg.setGauge("m.middle", 0.5);
  const std::string text = reg.dumpText();
  EXPECT_LT(text.find("a.first"), text.find("z.second"));
  EXPECT_NE(text.find("gauge m.middle"), std::string::npos);

  // Same contents, independently built -> identical dump bytes.
  MetricsRegistry again;
  again.setGauge("m.middle", 0.5);
  again.addCounter("a.first", 1);
  again.addCounter("z.second", 1);
  EXPECT_EQ(again.dumpText(), text);
  EXPECT_EQ(again.toJson().dump(), reg.toJson().dump());
}

}  // namespace
}  // namespace iobts::obs
