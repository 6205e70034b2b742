// Byte-identical-export gate for the parallel kernel: the same fleet
// scenario run at threads=1 and threads=4 must produce the exact same
// binary recording and metrics dump, including the "sim.parallel.*" /
// "sim.shard.*" counters. Trace staging + canonical replay is what makes
// this hold; this test is the proof.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "obs/binlog.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/summary.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"
#include "util/json.hpp"

namespace iobts {
namespace {

struct FleetExports {
  std::string metrics_text;
  std::string binary_trace;
  std::string summary_text;
};

FleetExports runTracedFleet(unsigned threads) {
  obs::TraceSink sink;
  obs::ScopedTraceSink scoped(sink);
  FleetExports out;
  obs::BinaryTraceWriter binwriter(sink, &out.binary_trace);

  std::vector<cluster::ClusterConfig> configs(3);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    configs[c].nodes = 32;
    configs[c].pfs.read_capacity = 10e9;
    configs[c].pfs.write_capacity = 10e9;
    configs[c].seed = 41 + c;
  }
  cluster::Fleet fleet({.report_latency = 0.5, .threads = threads},
                       std::move(configs));
  for (sim::ShardId c = 0; c < fleet.clusterCount(); ++c) {
    cluster::JobSpec sync;
    sync.name = "sync";
    sync.nodes = 10;
    sync.io = cluster::JobIo::Sync;
    sync.loops = 2;
    sync.compute_seconds = 1.0 + 0.25 * c;
    sync.write_bytes_per_node = 1 * kGB;
    fleet.submit(c, sync);

    cluster::JobSpec async;
    async.name = "async";
    async.nodes = 16;
    async.io = cluster::JobIo::Async;
    async.loops = 2;
    async.compute_seconds = 4.0;
    async.write_bytes_per_node = kGB / 2;
    const auto id = fleet.submit(c, async);
    fleet.cluster(c).enableContentionLimiting(id, 1.2, 0.25);
  }
  fleet.start();
  fleet.run(threads);

  binwriter.close();
  obs::SummaryOptions summary_options;
  summary_options.scenario_name = "fleet-identity";
  out.summary_text = obs::summarizeFleet(fleet, summary_options).render();

  obs::MetricsRegistry registry;
  fleet.exportMetrics(registry);
  for (sim::ShardId c = 0; c < fleet.clusterCount(); ++c) {
    // Clusters share dotted names; in a registry-per-cluster deployment
    // each would get its own. For the identity check a merged registry is
    // fine -- merged counters must match too.
    fleet.cluster(c).exportMetrics(registry);
    fleet.cluster(c).link().exportMetrics(registry);
  }
  sink.exportMetrics(registry);
  out.metrics_text = registry.dumpText();
  return out;
}

TEST(ExportIdentity, TraceAndMetricsBytesMatchAcrossThreadCounts) {
  const FleetExports reference = runTracedFleet(1);
  ASSERT_GT(reference.binary_trace.size(), 1000u);
  ASSERT_GT(reference.summary_text.size(), 100u);
  for (const unsigned threads : {2u, 4u}) {
    const FleetExports parallel = runTracedFleet(threads);
    EXPECT_EQ(reference.metrics_text, parallel.metrics_text)
        << "threads=" << threads;
    EXPECT_EQ(reference.binary_trace, parallel.binary_trace)
        << "threads=" << threads;
    EXPECT_EQ(reference.summary_text, parallel.summary_text)
        << "threads=" << threads;
  }
}

TEST(ExportIdentity, BinaryTraceDecodesToTheSameEventsTheJsonExportCarries) {
  // The recording holds the whole run (nothing dropped, everything drained
  // out of the ring), and the Chrome document derived from it carries the
  // same events and totals.
  const FleetExports exports = runTracedFleet(2);
  const obs::BinaryTrace trace =
      obs::decodeBinaryTrace(exports.binary_trace, "<memory>");
  EXPECT_EQ(trace.totals.recorded, trace.events.size());
  EXPECT_EQ(trace.totals.dropped, 0u);
  EXPECT_EQ(trace.totals.streamed, trace.events.size());
  ASSERT_GT(trace.events.size(), 0u);
  const Json doc = Json::parse(obs::chromeJsonFromBinaryTrace(trace));
  std::size_t events = 0;
  for (const Json& ev : doc.asObject().at("traceEvents").asArray()) {
    events += ev.asObject().at("ph").asString() != "M";
  }
  EXPECT_EQ(events, trace.events.size());
  EXPECT_EQ(doc.asObject().at("otherData").asObject().at("recorded").asNumber(),
            static_cast<double>(trace.totals.recorded));
}

struct DirectRecording {
  std::string bytes;
  std::uint64_t events = 0;
};

DirectRecording runDirectlyRecordedFleet(unsigned threads) {
  // Same fleet scenario as runTracedFleet, but recorded through the
  // per-shard direct path: no global sink, no barrier replay -- each
  // shard's staging buffer feeds its own delta encoder from the worker
  // that produced the events.
  DirectRecording out;
  obs::ShardedBinaryWriter recorder(&out.bytes);

  std::vector<cluster::ClusterConfig> configs(3);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    configs[c].nodes = 32;
    configs[c].pfs.read_capacity = 10e9;
    configs[c].pfs.write_capacity = 10e9;
    configs[c].seed = 41 + c;
  }
  cluster::Fleet fleet({.report_latency = 0.5, .threads = threads},
                       std::move(configs));
  fleet.sharded().setTraceRecorder(&recorder);
  for (sim::ShardId c = 0; c < fleet.clusterCount(); ++c) {
    cluster::JobSpec sync;
    sync.name = "sync";
    sync.nodes = 10;
    sync.io = cluster::JobIo::Sync;
    sync.loops = 2;
    sync.compute_seconds = 1.0 + 0.25 * c;
    sync.write_bytes_per_node = 1 * kGB;
    fleet.submit(c, sync);

    cluster::JobSpec async;
    async.name = "async";
    async.nodes = 16;
    async.io = cluster::JobIo::Async;
    async.loops = 2;
    async.compute_seconds = 4.0;
    async.write_bytes_per_node = kGB / 2;
    const auto id = fleet.submit(c, async);
    fleet.cluster(c).enableContentionLimiting(id, 1.2, 0.25);
  }
  fleet.start();
  fleet.run(threads);
  fleet.sharded().setTraceRecorder(nullptr);
  recorder.close();
  out.events = recorder.events();
  return out;
}

TEST(ExportIdentity, DirectShardRecordingReportsMatchAcrossThreadCounts) {
  // The *files* may interleave shard chunks differently per thread count;
  // the canonical reader merge must make every decoded report identical.
  const DirectRecording reference = runDirectlyRecordedFleet(1);
  ASSERT_GT(reference.events, 0u);
  const obs::BinaryTrace ref_trace =
      obs::decodeBinaryTrace(reference.bytes, "<t1>");
  EXPECT_EQ(ref_trace.shard_count, 3u);
  EXPECT_EQ(ref_trace.events.size(), reference.events);
  const std::string ref_profile = obs::profileSummaryText(ref_trace);
  const std::string ref_critical = obs::criticalPathText(ref_trace);
  const std::string ref_breq = obs::breqTableText(ref_trace);
  const std::string ref_chrome = obs::chromeJsonFromBinaryTrace(ref_trace);
  for (const unsigned threads : {2u, 4u}) {
    const DirectRecording parallel = runDirectlyRecordedFleet(threads);
    EXPECT_EQ(parallel.events, reference.events) << "threads=" << threads;
    const obs::BinaryTrace trace =
        obs::decodeBinaryTrace(parallel.bytes, "<tN>");
    EXPECT_EQ(obs::profileSummaryText(trace), ref_profile)
        << "threads=" << threads;
    EXPECT_EQ(obs::criticalPathText(trace), ref_critical)
        << "threads=" << threads;
    EXPECT_EQ(obs::breqTableText(trace), ref_breq) << "threads=" << threads;
    EXPECT_EQ(obs::chromeJsonFromBinaryTrace(trace), ref_chrome)
        << "threads=" << threads;
  }
}

TEST(ExportIdentity, ParallelCountersUseStableDottedNames) {
  obs::MetricsRegistry registry;
  {
    sim::ShardedSimulation sharded({.shards = 2, .lookahead = 0.5});
    sharded.shard(0).post(1.0, [&] {
      sim::crossPost(sharded.shard(0), 1, 0.5, [] {});
    });
    sharded.run();
    sharded.exportMetrics(registry);
  }
  EXPECT_EQ(registry.gauge("sim.parallel.shards"), 2.0);
  EXPECT_EQ(registry.gauge("sim.parallel.lookahead"), 0.5);
  EXPECT_GT(registry.counter("sim.parallel.windows"), 0u);
  EXPECT_EQ(registry.counter("sim.parallel.cross_posts_merged"), 1u);
  EXPECT_EQ(registry.counter("sim.parallel.events_dispatched"), 2u);
  EXPECT_GE(registry.counter("sim.parallel.window_stalls"), 1u);
  EXPECT_EQ(registry.counter("sim.parallel.trace_events_merged"), 0u);
  EXPECT_EQ(registry.counter("sim.shard.0.events_dispatched"), 1u);
  EXPECT_EQ(registry.counter("sim.shard.1.events_dispatched"), 1u);
  EXPECT_EQ(registry.gauge("sim.shard.0.pending_events"), 0.0);
}

TEST(ExportIdentity, ShardedComponentsPublishTheirShardId) {
  std::vector<cluster::ClusterConfig> configs(2);
  for (auto& cfg : configs) cfg.nodes = 8;
  cluster::Fleet fleet({.report_latency = 0.5}, std::move(configs));
  obs::MetricsRegistry registry;
  fleet.cluster(1).exportMetrics(registry);
  fleet.cluster(1).link().exportMetrics(registry);
  EXPECT_EQ(registry.gauge("cluster.shard"), 1.0);
  EXPECT_EQ(registry.gauge("pfs.link.shard"), 1.0);

  // An unsharded cluster must not export shard gauges: existing exports
  // stay byte-identical.
  sim::Simulation sim;
  cluster::ClusterConfig config;
  config.nodes = 8;
  cluster::Cluster plain(sim, config);
  obs::MetricsRegistry plain_registry;
  plain.exportMetrics(plain_registry);
  plain.link().exportMetrics(plain_registry);
  EXPECT_EQ(plain_registry.gauges().count("cluster.shard"), 0u);
  EXPECT_EQ(plain_registry.gauges().count("pfs.link.shard"), 0u);
}

}  // namespace
}  // namespace iobts
