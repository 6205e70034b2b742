// Cluster-level resume: application checkpoints inside cluster jobs (a
// requeued attempt resumes from its last recorded loop instead of loop 0),
// and the quiescent-park property on the cluster-contention pipeline
// (runUntil + run == run, the identity every checkpoint capture relies on).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/plan.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace iobts::ckpt {
namespace {

// --- JobSpec::checkpoint_interval -----------------------------------------

cluster::ClusterConfig slowLinkConfig(const fault::FaultPlan* plan) {
  cluster::ClusterConfig config;
  config.nodes = 2;
  config.pfs.write_capacity = 100;  // 100 B/s: 50 B writes take 0.5 s
  config.pfs.read_capacity = 100;
  config.fault_plan = plan;
  return config;
}

cluster::JobSpec checkpointedJob(int interval) {
  cluster::JobSpec spec;
  spec.name = "ckpt";
  spec.nodes = 1;
  spec.io = cluster::JobIo::Sync;
  spec.loops = 6;
  spec.compute_seconds = 1.0;
  spec.write_bytes_per_node = 50;
  spec.max_resubmits = 1;
  spec.checkpoint_interval = interval;
  return spec;
}

struct RequeueOutcome {
  cluster::JobResult result;
  std::uint64_t bytes_written = 0;
};

RequeueOutcome runRequeue(int interval) {
  // Sync loops are 1.5 s each (1.0 compute + 0.5 write), so writes land at
  // 1.5, 3.0, 4.5, 6.0, 7.5, 9.0. The fault window kills exactly the loop-5
  // write at 7.5; with interval=2 the job has recorded checkpoints after
  // loops 2 and 4 by then.
  sim::Simulation sim;
  fault::FaultPlan plan;
  plan.addTransferFault({.window = {7.2, 7.8}, .probability = 1.0});
  cluster::Cluster cl(sim, slowLinkConfig(&plan));
  const auto id = cl.submit(checkpointedJob(interval));
  cl.start();
  sim.run();
  return {cl.result(id), cl.link().bytesMoved(pfs::Channel::Write)};
}

TEST(CkptCluster, RequeuedJobResumesFromLastCheckpoint) {
  const RequeueOutcome with = runRequeue(/*interval=*/2);
  EXPECT_TRUE(with.result.succeeded());
  EXPECT_EQ(with.result.resubmits, 1);
  EXPECT_EQ(with.result.checkpointed_loops, 4);

  const RequeueOutcome without = runRequeue(/*interval=*/0);
  EXPECT_TRUE(without.result.succeeded());
  EXPECT_EQ(without.result.resubmits, 1);
  EXPECT_EQ(without.result.checkpointed_loops, 0);

  // The resumed attempt re-ran loops 4..5 instead of 0..5: four 50-byte
  // writes of wasted work saved.
  EXPECT_EQ(with.bytes_written + 200, without.bytes_written);
  // And the requeued run finishes earlier for the same reason.
  EXPECT_LT(with.result.end, without.result.end);
}

TEST(CkptCluster, CheckpointResumeIsDeterministic) {
  const RequeueOutcome a = runRequeue(/*interval=*/2);
  const RequeueOutcome b = runRequeue(/*interval=*/2);
  EXPECT_EQ(a.result.end, b.result.end);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.result.checkpointed_loops, b.result.checkpointed_loops);
}

TEST(CkptCluster, IntervalZeroLeavesTheProgramUntouched) {
  // With checkpointing disabled the rank program must be byte-identical to
  // the pre-checkpoint build: same end time, same bytes, no recorded loops.
  sim::Simulation sim;
  cluster::Cluster cl(sim, slowLinkConfig(nullptr));
  const auto id = cl.submit(checkpointedJob(0));
  cl.start();
  sim.run();
  EXPECT_TRUE(cl.result(id).succeeded());
  EXPECT_EQ(cl.result(id).checkpointed_loops, 0);
  EXPECT_EQ(cl.result(id).resubmits, 0);
}

// --- Cluster-contention quiescent parking ---------------------------------

std::string contentionCanon(const std::vector<double>& park_times) {
  // The golden-digest cluster-contention pipeline at reduced scale; any
  // divergence between a parked and a straight drive here would break the
  // capture contract for cluster checkpoints.
  sim::Simulation sim;
  cluster::ClusterConfig config;
  config.nodes = 64;
  config.pfs.read_capacity = 12e9;
  config.pfs.write_capacity = 12e9;
  cluster::Cluster cl(sim, config);
  std::vector<cluster::JobId> ids;
  for (int i = 0; i < 3; ++i) {
    cluster::JobSpec spec;
    spec.name = "sync" + std::to_string(i);
    spec.nodes = 12;
    spec.io = cluster::JobIo::Sync;
    spec.loops = 3;
    spec.compute_seconds = 1.5 + 0.7 * i;
    spec.write_bytes_per_node = 4 * kGB;
    ids.push_back(cl.submit(spec));
  }
  cluster::JobSpec async_spec;
  async_spec.name = "async";
  async_spec.nodes = 28;
  async_spec.io = cluster::JobIo::Async;
  async_spec.loops = 2;
  async_spec.compute_seconds = 20.0;
  async_spec.write_bytes_per_node = 1 * kGB;
  const auto async_id = cl.submit(async_spec);
  ids.push_back(async_id);
  cl.enableContentionLimiting(async_id, 1.2, 0.25);
  cl.start();
  for (const double t : park_times) sim.runUntil(t);
  sim.run();

  std::string out;
  for (const auto id : ids) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s %a %a %d\n", cl.spec(id).name.c_str(),
                  cl.result(id).start, cl.result(id).end,
                  cl.result(id).failed ? 1 : 0);
    out += buf;
  }
  out += std::to_string(cl.link().bytesMoved(pfs::Channel::Write)) + "\n";
  return out;
}

TEST(CkptCluster, ContentionPipelineParkAndResumeEqualsStraightRun) {
  const std::string straight = contentionCanon({});
  EXPECT_EQ(contentionCanon({5.0}), straight);
  EXPECT_EQ(contentionCanon({3.0, 11.0, 26.0}), straight);
  EXPECT_EQ(contentionCanon({0.5, 0.6, 0.7, 40.0}), straight);
}

}  // namespace
}  // namespace iobts::ckpt
