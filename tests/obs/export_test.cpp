// Export-layer tests over recorded binlogs: Chrome-trace structure of the
// document derived from a recording, byte-identical determinism across two
// identical traced runs, and consistency between the recording and the
// SharedLink's own resolve counters.
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "util/units.hpp"

namespace iobts {
namespace {

sim::Task<void> smallApp(mpisim::RankCtx& ctx) {
  auto file = ctx.open("/pfs/obs_test." + std::to_string(ctx.rank()));
  mpisim::Request pending;
  for (int loop = 0; loop < 3; ++loop) {
    if (pending.valid()) co_await ctx.wait(pending);
    pending = co_await file.iwriteAt(0, 8 * kMB, /*tag=*/loop + 1);
    co_await ctx.compute(0.5);
  }
  co_await ctx.wait(pending);
}

/// Chrome JSON derived from a finished in-memory recording.
std::string chromeJsonOf(const std::string& recording) {
  return obs::chromeJsonFromBinaryTrace(
      obs::decodeBinaryTrace(recording, "<memory>"));
}

struct TracedRun {
  obs::TraceSink sink;
  std::string recording;
  std::string trace_json;
  std::string metrics_text;
  pfs::SharedLink::ResolveStats write_stats;

  TracedRun() {
    obs::BinaryTraceWriter writer(sink, &recording);
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

    obs::MetricsRegistry metrics;
    sim.exportMetrics(metrics);
    link.exportMetrics(metrics);
    world.exportMetrics(metrics);
    EXPECT_TRUE(writer.close());
    trace_json = chromeJsonOf(recording);
    metrics_text = metrics.dumpText();
    write_stats = link.resolveStats(pfs::Channel::Write);
  }
};

TEST(TraceExport, TwoIdenticalRunsProduceByteIdenticalExports) {
  // The core determinism guarantee: with wall capture off (the default),
  // the recording, the Chrome document derived from it and the metrics
  // dump are pure functions of the simulated run -- byte for byte, even
  // for two runs in one process.
  TracedRun first;
  TracedRun second;
  EXPECT_GT(first.sink.recorded(), 0u);
  EXPECT_EQ(first.recording, second.recording);
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.metrics_text, second.metrics_text);
}

TEST(TraceExport, ResolveSpansMatchLinkCounters) {
  TracedRun run;
  const obs::BinaryTrace trace =
      obs::decodeBinaryTrace(run.recording, "<memory>");
  std::uint64_t resolve_spans = 0;
  std::uint64_t skip_instants = 0;
  for (const obs::BinEvent& ev : trace.events) {
    if (ev.pid != obs::track::kLink) continue;
    if (ev.tid != static_cast<std::uint32_t>(pfs::Channel::Write)) continue;
    const std::string_view name = trace.strings[ev.name];
    if (name == "resolve") {
      EXPECT_EQ(ev.phase, obs::Phase::Complete);
      ++resolve_spans;
    } else if (name == "resolve.skip") {
      ++skip_instants;
    }
  }
  EXPECT_EQ(resolve_spans, run.write_stats.executed);
  EXPECT_EQ(skip_instants, run.write_stats.lazy_skipped);
  EXPECT_GT(resolve_spans, 0u);
}

TEST(TraceExport, ChromeTraceDocumentIsWellFormed) {
  TracedRun run;
  const Json doc = Json::parse(run.trace_json);
  ASSERT_TRUE(doc.isObject());
  const auto& root = doc.asObject();
  ASSERT_TRUE(root.count("traceEvents"));
  const auto& events = root.at("traceEvents").asArray();
  ASSERT_FALSE(events.empty());

  std::size_t metadata = 0, spans = 0, counters = 0, flows = 0;
  for (const Json& ev : events) {
    ASSERT_TRUE(ev.isObject());
    const auto& o = ev.asObject();
    const std::string& ph = o.at("ph").asString();
    ASSERT_TRUE(o.count("pid"));
    if (ph == "M") {
      // Metadata names tracks; no timestamp required.
      const std::string& name = o.at("name").asString();
      EXPECT_TRUE(name == "process_name" || name == "thread_name");
      ++metadata;
      continue;
    }
    ASSERT_TRUE(o.count("ts"));
    ASSERT_TRUE(o.count("tid"));
    ASSERT_TRUE(o.count("cat"));
    EXPECT_GE(o.at("ts").asNumber(), 0.0);
    if (ph == "X") {
      ASSERT_TRUE(o.count("dur"));
      EXPECT_GE(o.at("dur").asNumber(), 0.0);
      ++spans;
    } else if (ph == "C") {
      ++counters;
    } else if (ph == "s" || ph == "t" || ph == "f") {
      // Flow events carry a hex-string journey id; "f" binds to the
      // enclosing slice.
      ASSERT_TRUE(o.count("id"));
      const std::string& id = o.at("id").asString();
      EXPECT_EQ(id.compare(0, 2, "0x"), 0);
      EXPECT_NE(id, "0x0");
      if (ph == "f") {
        ASSERT_TRUE(o.count("bp"));
        EXPECT_EQ(o.at("bp").asString(), "e");
      }
      ++flows;
    } else {
      EXPECT_EQ(ph, "i");
    }
  }
  EXPECT_GT(metadata, 0u);  // link/stream track names registered at setup
  EXPECT_GT(spans, 0u);
  EXPECT_GT(counters, 0u);  // sim heap-depth counter
  EXPECT_GT(flows, 0u);     // request journeys

  // The ring accounting travels from the binlog footer into the document.
  const auto& other = root.at("otherData").asObject();
  EXPECT_DOUBLE_EQ(other.at("recorded").asNumber(),
                   static_cast<double>(run.sink.recorded()));
  EXPECT_DOUBLE_EQ(other.at("dropped").asNumber(), 0.0);
}

TEST(TraceExport, VirtualTimesScaleToMicroseconds) {
  obs::TraceSink sink;
  std::string recording;
  {
    obs::BinaryTraceWriter writer(sink, &recording);
    sink.complete("cat", "span", 1, 0, /*ts=*/2.0, /*dur=*/0.25);
  }
  const Json doc = Json::parse(chromeJsonOf(recording));
  const auto& events = doc.asObject().at("traceEvents").asArray();
  ASSERT_EQ(events.size(), 1u);
  const auto& o = events[0].asObject();
  EXPECT_DOUBLE_EQ(o.at("ts").asNumber(), 2.0e6);
  EXPECT_DOUBLE_EQ(o.at("dur").asNumber(), 0.25e6);
}

TEST(TraceExport, WriteHelpersRoundTrip) {
  obs::MetricsRegistry metrics;
  metrics.addCounter("x", 1);

  const std::string dir = ::testing::TempDir();
  {
    obs::TraceSink sink;
    obs::BinaryTraceWriter writer(sink, dir + "/obs_trace.bin");
    ASSERT_TRUE(writer.good());
    sink.instant("cat", "mark", 1, 0, 1.0);
    ASSERT_TRUE(writer.close());
  }
  EXPECT_EQ(obs::readBinaryTrace(dir + "/obs_trace.bin").events.size(), 1u);
  ASSERT_TRUE(obs::writeMetrics(metrics, dir + "/obs_metrics.json"));
  ASSERT_TRUE(obs::writeMetrics(metrics, dir + "/obs_metrics.txt"));
  obs::TraceSink sink;
  obs::BinaryTraceWriter unwritable(sink, dir + "/no/such/dir/t.bin");
  EXPECT_FALSE(unwritable.good());
  EXPECT_FALSE(unwritable.close());
  EXPECT_FALSE(obs::writeMetrics(metrics, dir + "/no/such/dir/m.txt"));
}

}  // namespace
}  // namespace iobts
