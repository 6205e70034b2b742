// Determinism gate for the independent-shard executor on the real paper
// pipelines: fig10-quick WaComM worlds, the cluster-contention scenario,
// and worlds under a transfer-fault plan with a retry budget -- one world or
// cluster per shard -- each run at threads in {1, 2, 4} across >= 8 seeds;
// every run's observable outputs
// are serialized to the same canonical hexfloat text the golden-digest
// suite uses and FNV-hashed. The threads=1 digest is the reference; any
// thread count producing a different byte means shard state leaked across
// workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "mpisim/world.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "sim/sharded.hpp"
#include "tmio/tracer.hpp"
#include "util/rng.hpp"
#include "workloads/wacomm.hpp"

#include "../support/cluster_shards.hpp"

namespace iobts {
namespace {

using testsupport::ClusterShards;

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
constexpr unsigned kThreadCounts[] = {1, 2, 4};

void appendNumber(std::string& out, const std::string& key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%a\n", key.c_str(), value);
  out += buf;
}

// --- fig10-quick: one WaComM world per shard ---------------------------------

struct WorldShard {
  WorldShard(sim::Simulation& sim, pfs::LinkConfig link_cfg,
             mpisim::WorldConfig world_cfg, tmio::TracerConfig tracer_cfg)
      : link(sim, link_cfg), tracer(tracer_cfg),
        world(sim, link, store, world_cfg, &tracer) {
    tracer.attach(world);
  }

  pfs::SharedLink link;
  pfs::FileStore store;
  tmio::Tracer tracer;
  mpisim::World world;
};

std::uint64_t runFig10QuickFleet(unsigned threads, std::uint64_t seed) {
  constexpr std::uint32_t kShards = 4;
  sim::ShardedSimulation sharded({.shards = kShards, .threads = threads});

  std::vector<std::unique_ptr<WorldShard>> members;
  for (sim::ShardId s = 0; s < kShards; ++s) {
    pfs::LinkConfig link;
    link.write_capacity = 106e9;
    link.read_capacity = 120e9;
    link.client_rate_cap = 1.5e9;
    link.congestion_gamma = 2e-4;
    mpisim::WorldConfig wcfg;
    wcfg.ranks = 12;
    wcfg.seed = seed ^ (s * 0x9E3779B97F4A7C15ULL);
    wcfg.compute_jitter_sigma = 0.02;
    tmio::TracerConfig tcfg;
    tcfg.strategy =
        (s % 2 == 0) ? tmio::StrategyKind::UpOnly : tmio::StrategyKind::None;
    tcfg.params.tolerance = 1.1;
    members.push_back(std::make_unique<WorldShard>(sharded.shard(s), link,
                                                   wcfg, tcfg));

    workloads::WacommConfig cfg;
    cfg.bytes_per_particle = 2048;
    cfg.iteration_compute_core_seconds = 12.0;
    cfg.iteration_fixed_seconds = 1.1;
    cfg.iterations = 3;
    members.back()->world.launch(workloads::wacommProgram(cfg));
  }

  const double t_end = sharded.run(threads);

  std::string canon = "fig10-quick-fleet\n";
  appendNumber(canon, "t_end", t_end);
  for (sim::ShardId s = 0; s < kShards; ++s) {
    const std::string p = std::string("w").append(std::to_string(s));
    appendNumber(canon, p + ".elapsed", members[s]->world.elapsed());
    appendNumber(canon, p + ".bytes_write",
                 static_cast<double>(
                     members[s]->link.bytesMoved(pfs::Channel::Write)));
    appendNumber(canon, p + ".events",
                 static_cast<double>(sharded.shard(s).eventsProcessed()));
  }
  return hashName(canon);
}

TEST(FleetDeterminism, Fig10QuickWorldsAcrossThreadsAndSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t reference = runFig10QuickFleet(1, seed);
    for (const unsigned threads : kThreadCounts) {
      if (threads == 1) continue;
      EXPECT_EQ(runFig10QuickFleet(threads, seed), reference)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// --- cluster contention: one cluster per shard -----------------------------

std::string clusterCanon(ClusterShards& shards, double t_end,
                         const char* label) {
  std::string canon = std::string(label) + "\n";
  appendNumber(canon, "t_end", t_end);
  for (sim::ShardId c = 0; c < shards.clusters.size(); ++c) {
    cluster::Cluster& cl = *shards.clusters[c];
    const std::string p = std::string("c").append(std::to_string(c));
    for (cluster::JobId j = 0; j < cl.jobCount(); ++j) {
      const cluster::JobResult& r = cl.result(j);
      const std::string jp = p + "." + cl.spec(j).name;
      appendNumber(canon, jp + ".start", r.start);
      appendNumber(canon, jp + ".end", r.end);
    }
    appendNumber(canon, p + ".bytes_write",
                 static_cast<double>(
                     cl.link().bytesMoved(pfs::Channel::Write)));
    appendNumber(
        canon, p + ".events",
        static_cast<double>(shards.sharded.shard(c).eventsProcessed()));
  }
  return canon;
}

std::uint64_t runContentionFleet(unsigned threads, std::uint64_t seed) {
  std::vector<cluster::ClusterConfig> configs(3);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    configs[c].nodes = 48;
    configs[c].pfs.read_capacity = 12e9;
    configs[c].pfs.write_capacity = 12e9;
    configs[c].seed = seed ^ (c * 0x517CC1B727220A95ULL);
  }
  ClusterShards shards(std::move(configs), threads);

  for (std::size_t c = 0; c < shards.clusters.size(); ++c) {
    cluster::Cluster& member = *shards.clusters[c];
    for (int i = 0; i < 2; ++i) {
      cluster::JobSpec spec;
      spec.name = "sync" + std::to_string(i);
      spec.nodes = 12;
      spec.io = cluster::JobIo::Sync;
      spec.loops = 2;
      spec.compute_seconds = 1.5 + 0.7 * i + 0.1 * c;
      spec.write_bytes_per_node = 2 * kGB;
      member.submit(spec);
    }
    cluster::JobSpec async_spec;
    async_spec.name = "async";
    async_spec.nodes = 20;
    async_spec.io = cluster::JobIo::Async;
    async_spec.loops = 2;
    async_spec.compute_seconds = 8.0;
    async_spec.write_bytes_per_node = 1 * kGB;
    const auto id = member.submit(async_spec);
    member.enableContentionLimiting(id, 1.2, 0.25);
    member.start();
  }

  const double t_end = shards.sharded.run(threads);
  for (const auto& member : shards.clusters) {
    EXPECT_TRUE(member->allFinished());
  }
  return hashName(clusterCanon(shards, t_end, "contention-fleet"));
}

TEST(FleetDeterminism, ClusterContentionFleetAcrossThreadsAndSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t reference = runContentionFleet(1, seed);
    for (const unsigned threads : kThreadCounts) {
      if (threads == 1) continue;
      EXPECT_EQ(runContentionFleet(threads, seed), reference)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// --- fault-plan fleet: one faulted world per shard --------------------------

// Two compute-then-write loops per rank, the burst blocking or in the
// background of the next compute phase.
mpisim::World::RankProgram burstLoop(bool async) {
  return [async](mpisim::RankCtx& ctx) -> sim::Task<void> {
    auto file = ctx.open("/pfs/out." + std::to_string(ctx.rank()));
    mpisim::Request pending;
    for (int loop = 0; loop < 2; ++loop) {
      co_await ctx.compute(async ? 1.5 : 1.0);
      if (pending.valid()) co_await ctx.wait(pending);
      const auto tag = static_cast<pfs::ContentTag>(loop + 1);
      if (async) {
        pending = co_await file.iwriteAt(0, 1 * kGB, tag);
      } else {
        co_await file.writeAt(0, 1 * kGB, tag);
      }
    }
    if (pending.valid()) co_await ctx.wait(pending);
  };
}

std::uint64_t runFaultPlanFleet(unsigned threads, std::uint64_t seed) {
  constexpr std::uint32_t kShards = 4;
  sim::ShardedSimulation sharded({.shards = kShards, .threads = threads});

  // Plans must outlive the links: declared before the members. Shards 0-1
  // brown out (a degradation with probabilistic faults inside it), shards
  // 2-3 fault every transfer completing in [2, 4).
  std::vector<fault::FaultPlan> plans;
  for (sim::ShardId s = 0; s < kShards; ++s) {
    plans.emplace_back(seed ^ (0xF001 + s));
    if (s < 2) {
      plans.back()
          .degradeChannel(pfs::Channel::Write, 0.25, {4.0, 9.0})
          .addTransferFault({.channel = pfs::Channel::Write,
                             .window = {5.0, 7.0},
                             .probability = 0.6});
    } else {
      plans.back().addTransferFault({.window = {2.0, 4.0}, .probability = 1.0});
    }
  }

  std::vector<std::unique_ptr<WorldShard>> members;
  for (sim::ShardId s = 0; s < kShards; ++s) {
    pfs::LinkConfig link;
    link.read_capacity = 8e9;
    link.write_capacity = 8e9;
    mpisim::WorldConfig wcfg;
    wcfg.ranks = 10;
    wcfg.seed = seed ^ (s * 0xD1B54A32D192ED03ULL);
    wcfg.retry.max_retries = 2;
    wcfg.retry.base_backoff = 0.1;
    members.push_back(std::make_unique<WorldShard>(sharded.shard(s), link,
                                                   wcfg, tmio::TracerConfig{}));
    members.back()->link.installFaultPlan(plans[s]);
    members.back()->world.launch(burstLoop(/*async=*/s % 2 == 1));
  }

  const double t_end = sharded.run(threads);

  std::string canon = "fault-fleet\n";
  appendNumber(canon, "t_end", t_end);
  std::uint64_t retries = 0;
  for (sim::ShardId s = 0; s < kShards; ++s) {
    const WorldShard& m = *members[s];
    const mpisim::AdioEngine::Stats io = m.world.ioStats();
    retries += io.retries;
    const std::string p = std::string("w").append(std::to_string(s));
    appendNumber(canon, p + ".elapsed", m.world.elapsed());
    appendNumber(canon, p + ".bytes_write",
                 static_cast<double>(m.link.bytesMoved(pfs::Channel::Write)));
    appendNumber(canon, p + ".faulted",
                 static_cast<double>(
                     m.link.resolveStats(pfs::Channel::Write).faulted_transfers));
    appendNumber(canon, p + ".retries", static_cast<double>(io.retries));
    appendNumber(canon, p + ".failures", static_cast<double>(io.failures));
    appendNumber(canon, p + ".failed_ranks",
                 static_cast<double>(m.world.failedRanks()));
    appendNumber(canon, p + ".events",
                 static_cast<double>(sharded.shard(s).eventsProcessed()));
  }
  // The verdicts fired and the retry budget was spent: the fleet checks
  // the fault path, not a fault-free run.
  EXPECT_GT(retries, 0u) << "seed=" << seed;
  return hashName(canon);
}

TEST(FleetDeterminism, FaultPlanFleetAcrossThreadsAndSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t reference = runFaultPlanFleet(1, seed);
    for (const unsigned threads : kThreadCounts) {
      if (threads == 1) continue;
      EXPECT_EQ(runFaultPlanFleet(threads, seed), reference)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace iobts
