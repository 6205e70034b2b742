// One cluster::Cluster per shard of an independent-shard run: the setup the
// parallel determinism and export-identity suites share.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/sharded.hpp"

namespace iobts::testsupport {

struct ClusterShards {
  ClusterShards(std::vector<cluster::ClusterConfig> configs, unsigned threads)
      : sharded({.shards = static_cast<std::uint32_t>(configs.size()),
                 .threads = threads}) {
    for (sim::ShardId c = 0; c < configs.size(); ++c) {
      clusters.push_back(std::make_unique<cluster::Cluster>(
          sharded.shard(c), std::move(configs[c])));
    }
  }

  sim::ShardedSimulation sharded;
  std::vector<std::unique_ptr<cluster::Cluster>> clusters;
};

}  // namespace iobts::testsupport
