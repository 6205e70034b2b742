// Byte-identical-export gate for the independent-shard executor: the same
// three-cluster scenario (one cluster per shard) run at threads 1, 2 and 4
// must produce the exact same binary recording and metrics dump through
// the global sink, and the recording keeps every event.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/binlog.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"
#include "util/json.hpp"

#include "../support/cluster_shards.hpp"

namespace iobts {
namespace {

using testsupport::ClusterShards;

constexpr unsigned kThreadCounts[] = {1, 2, 4};

/// Three clusters, one per shard, each running a sync and a
/// contention-limited async job.
std::unique_ptr<ClusterShards> makeClusters(unsigned threads) {
  std::vector<cluster::ClusterConfig> configs(3);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    configs[c].nodes = 32;
    configs[c].pfs.read_capacity = 10e9;
    configs[c].pfs.write_capacity = 10e9;
    configs[c].seed = 41 + c;
  }
  auto shards = std::make_unique<ClusterShards>(std::move(configs), threads);
  for (std::size_t c = 0; c < shards->clusters.size(); ++c) {
    cluster::Cluster& member = *shards->clusters[c];
    cluster::JobSpec sync;
    sync.name = "sync";
    sync.nodes = 10;
    sync.io = cluster::JobIo::Sync;
    sync.loops = 2;
    sync.compute_seconds = 1.0 + 0.25 * static_cast<double>(c);
    sync.write_bytes_per_node = 1 * kGB;
    member.submit(sync);

    cluster::JobSpec async;
    async.name = "async";
    async.nodes = 16;
    async.io = cluster::JobIo::Async;
    async.loops = 2;
    async.compute_seconds = 4.0;
    async.write_bytes_per_node = kGB / 2;
    const auto id = member.submit(async);
    member.enableContentionLimiting(id, 1.2, 0.25);
  }
  return shards;
}

struct GlobalSinkExports {
  std::string metrics_text;
  std::string binary_trace;
};

GlobalSinkExports runTracedClusters(unsigned threads,
                                    std::size_t ring_capacity = 1 << 16) {
  obs::TraceSink sink({.capacity = ring_capacity});
  obs::ScopedTraceSink scoped(sink);
  GlobalSinkExports out;
  obs::BinaryTraceWriter binwriter(sink, &out.binary_trace);

  const std::unique_ptr<ClusterShards> shards = makeClusters(threads);
  for (auto& member : shards->clusters) member->start();
  shards->sharded.run(threads);
  binwriter.close();

  obs::MetricsRegistry registry;
  shards->sharded.exportMetrics(registry);
  for (const auto& member : shards->clusters) {
    // Clusters share dotted names; for the identity check a merged
    // registry is fine -- merged counters must match too.
    member->exportMetrics(registry);
    member->link().exportMetrics(registry);
  }
  sink.exportMetrics(registry);
  out.metrics_text = registry.dumpText();
  return out;
}

TEST(ExportIdentity, TraceAndMetricsBytesMatchAcrossThreadCounts) {
  const GlobalSinkExports reference = runTracedClusters(1);
  ASSERT_GT(reference.binary_trace.size(), 1000u);
  for (const unsigned threads : kThreadCounts) {
    const GlobalSinkExports parallel = runTracedClusters(threads);
    EXPECT_EQ(reference.metrics_text, parallel.metrics_text)
        << "threads=" << threads;
    EXPECT_EQ(reference.binary_trace, parallel.binary_trace)
        << "threads=" << threads;
  }
}

TEST(ExportIdentity, BinaryTraceDecodesToTheSameEventsTheJsonExportCarries) {
  // The recording holds the whole run (nothing dropped, everything drained
  // out of the ring), and the Chrome document derived from it carries the
  // same events and totals.
  const GlobalSinkExports exports = runTracedClusters(2);
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

TEST(ExportIdentity, GlobalSinkRecordingThroughASmallRingKeepsEveryEvent) {
  // Each shard emits about twice as many events as a 512-event ring holds.
  // The shards drain straight into the global sink, whose writer empties
  // the ring at half occupancy, so the recording is identical to one taken
  // through a ring large enough for the whole run.
  const obs::BinaryTrace roomy = obs::decodeBinaryTrace(
      runTracedClusters(1).binary_trace, "<roomy>");
  ASSERT_EQ(roomy.events.size(), 3360u);
  for (const unsigned threads : kThreadCounts) {
    const obs::BinaryTrace small = obs::decodeBinaryTrace(
        runTracedClusters(threads, 512).binary_trace, "<small>");
    EXPECT_EQ(small.events.size(), roomy.events.size())
        << "threads=" << threads;
    EXPECT_EQ(small.totals.recorded, roomy.events.size());
    EXPECT_EQ(small.totals.dropped, 0u);
    EXPECT_EQ(obs::profileSummaryText(small), obs::profileSummaryText(roomy))
        << "threads=" << threads;
  }
}

TEST(ExportIdentity, ParallelCountersUseStableDottedNames) {
  obs::MetricsRegistry registry;
  {
    sim::ShardedSimulation sharded({.shards = 2});
    sharded.shard(0).post(1.0, [] {});
    sharded.shard(1).post(0.5, [] {});
    sharded.run();
    sharded.exportMetrics(registry);
  }
  EXPECT_EQ(registry.gauge("sim.parallel.shards"), 2.0);
  EXPECT_EQ(registry.counter("sim.parallel.events_dispatched"), 2u);
  EXPECT_EQ(registry.counter("sim.shard.0.events_dispatched"), 1u);
  EXPECT_EQ(registry.counter("sim.shard.1.events_dispatched"), 1u);
  EXPECT_EQ(registry.gauge("sim.shard.0.pending_events"), 0.0);
}

TEST(ExportIdentity, ShardedComponentsPublishTheirShardId) {
  std::vector<cluster::ClusterConfig> configs(2);
  for (auto& cfg : configs) cfg.nodes = 8;
  ClusterShards shards(std::move(configs), 1);
  obs::MetricsRegistry registry;
  shards.clusters[1]->exportMetrics(registry);
  shards.clusters[1]->link().exportMetrics(registry);
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
