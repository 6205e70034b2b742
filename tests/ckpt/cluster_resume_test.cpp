// Cluster-level resume: the quiescent-park property on the
// cluster-contention pipeline (runUntil + run == run, the identity every
// checkpoint capture relies on).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace iobts::ckpt {
namespace {

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
    std::snprintf(buf, sizeof(buf), "%s %a %a\n", cl.spec(id).name.c_str(),
                  cl.result(id).start, cl.result(id).end);
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
