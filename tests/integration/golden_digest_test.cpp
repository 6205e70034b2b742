// Golden-digest gate for the paper-figure pipelines.
//
// Scaled-down fig10 (WaComM++ up-only vs none) and fig13 (HACC-IO strategy
// sweep) runs, a cluster_contention-style scenario, and an FTIO/publisher
// pipeline (the online JSONL record stream + periodicity verdict) are executed
// in-process; their observable outputs (elapsed time, exploit breakdowns,
// byte accounting, resampled bandwidth series) are serialized to a canonical
// hexfloat text (tests/support/golden.hpp) and FNV-1a hashed against
// checked-in digests. Any solver or scheduler change that shifts a
// paper-facing number by even one ULP flips the digest, so results cannot
// drift silently. (Exception: the noisy fig14 case digests a
// reduced-precision canonicalization -- see appendNumberCanonical -- because
// its recompute-quantum accumulation carries toolchain-dependent low bits.)
//
// The fig10/fig13 configurations and digests live in workloads/quick.hpp,
// shared with the scenario twin suite: the DSL re-expression of each figure
// must hash to the *same* constant as these hand-coded runs.
//
// When a change *intends* to alter results, regenerate the constants:
//   IOBTS_DUMP_GOLDEN=1 ./build/tests/integration_test
//       --gtest_filter='GoldenDigest.*'
// (one command line) prints each case's canonical text and digest; review
// the textual diff before updating the constants.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "mpisim/world.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "tmio/ftio.hpp"
#include "tmio/publisher.hpp"
#include "tmio/report.hpp"
#include "tmio/tracer.hpp"
#include "util/stats.hpp"
#include "workloads/hacc_io.hpp"
#include "workloads/quick.hpp"
#include "workloads/wacomm.hpp"

#include "../support/golden.hpp"

namespace iobts {
namespace {

using testsupport::appendLost;
using testsupport::appendNumber;
using testsupport::appendNumberCanonical;
using testsupport::appendSeries;
using testsupport::appendSeriesCanonical;
using testsupport::appendTracedCase;
using testsupport::checkDigest;

// The fig harnesses' TracedRun wiring, replicated so the test depends only
// on library targets.
struct MiniRun {
  MiniRun(pfs::LinkConfig link_cfg, mpisim::WorldConfig world_cfg,
          tmio::TracerConfig tracer_cfg)
      : link(sim, link_cfg),
        tracer(tracer_cfg),
        world(sim, link, store, world_cfg, &tracer) {
    tracer.attach(world);
  }

  void run(mpisim::World::RankProgram program) {
    world.launch(std::move(program));
    sim.run();
  }

  sim::Simulation sim;
  pfs::SharedLink link;
  pfs::FileStore store;
  tmio::Tracer tracer;
  mpisim::World world;
};

TEST(GoldenDigest, Fig10WacommPipeline) {
  // Fig. 10 at reduced scale: 48 ranks, 6 iterations, same per-iteration
  // compute split, congestion, and tolerance as bench/fig10_wacomm_9216.
  std::string canon = "fig10-mini\n";
  for (const auto strategy :
       {tmio::StrategyKind::UpOnly, tmio::StrategyKind::None}) {
    mpisim::WorldConfig wcfg;
    wcfg.ranks = workloads::kFig10QuickRanks;
    MiniRun run(workloads::fig10QuickLinkConfig(), wcfg,
                workloads::quickTracerConfig(strategy));
    run.run(workloads::wacommProgram(workloads::fig10QuickWacommConfig()));
    appendTracedCase(
        canon, strategy == tmio::StrategyKind::None ? "none" : "up-only",
        run.world, run.tracer, run.link);
  }
  checkDigest("fig10_mini", canon, workloads::kFig10QuickDigest);
}

TEST(GoldenDigest, Fig13HaccStrategySweep) {
  // Fig. 13 at reduced scale: 32 ranks, 2 loops, paper-scaled compute and
  // the nine-array write split, across all four strategies.
  std::string canon = "fig13-mini\n";
  const struct {
    const char* label;
    tmio::StrategyKind strategy;
  } settings[] = {
      {"direct", tmio::StrategyKind::Direct},
      {"up-only", tmio::StrategyKind::UpOnly},
      {"adaptive", tmio::StrategyKind::Adaptive},
      {"none", tmio::StrategyKind::None},
  };
  for (const auto& s : settings) {
    mpisim::WorldConfig wcfg;
    wcfg.ranks = workloads::kFig13QuickRanks;
    MiniRun run(workloads::lichtenbergLinkConfig(), wcfg,
                workloads::quickTracerConfig(s.strategy));
    run.run(workloads::haccIoProgram(workloads::fig13QuickHaccConfig()));
    appendTracedCase(canon, s.label, run.world, run.tracer, run.link);
    appendLost(canon, run.tracer, wcfg.ranks);
  }
  checkDigest("fig13_mini", canon, workloads::kFig13QuickDigest);
}

TEST(GoldenDigest, Fig14NoisyDirectPipeline) {
  // Fig. 14 at reduced scale: 16 ranks, 2 loops, direct strategy, and the
  // bench's noisy-link recipe -- per-transfer lognormal slowdowns around a
  // reference just above the applied write limit, re-solved on a 5 ms
  // recompute quantum. This is the one pipeline whose outputs carry
  // toolchain-dependent low bits (see appendNumberCanonical in
  // tests/support/golden.hpp), so it digests the canonicalized text, not
  // hexfloats.
  std::string canon = "fig14-mini\n";
  for (const double noise_sigma : {0.0, 0.4}) {
    mpisim::WorldConfig wcfg;
    wcfg.ranks = 16;
    wcfg.compute_jitter_sigma = 0.03;
    workloads::HaccIoConfig hacc;
    const double scale = std::pow(16.0, 0.55);
    hacc.compute_seconds = 0.30 * scale;
    hacc.verify_seconds = 0.25 * scale;
    hacc.requests_per_write = 9;
    hacc.loops = 2;
    pfs::LinkConfig link = workloads::lichtenbergLinkConfig();
    link.noise_sigma = noise_sigma;
    const double write_requirement =
        static_cast<double>(workloads::haccBytesPerRankPerLoop(hacc)) /
        hacc.verify_seconds;
    link.noise_reference_rate = 1.4 * write_requirement;
    link.recompute_quantum = noise_sigma > 0.0 ? 5e-3 : 0.0;
    MiniRun run(link, wcfg,
                workloads::quickTracerConfig(tmio::StrategyKind::Direct));
    run.run(workloads::haccIoProgram(hacc));

    canon += std::string("case=sigma") + (noise_sigma > 0.0 ? "0.4" : "0") +
             "\n";
    const double t_end = run.world.elapsed();
    appendNumberCanonical(canon, "elapsed", t_end);
    double lost = 0.0;
    for (int r = 0; r < wcfg.ranks; ++r) {
      lost += run.tracer.rankSplit(r).write_lost +
              run.tracer.rankSplit(r).read_lost;
    }
    appendNumberCanonical(canon, "lost", lost);
    appendNumberCanonical(
        canon, "bytes_write",
        static_cast<double>(run.link.bytesMoved(pfs::Channel::Write)));
    appendSeriesCanonical(
        canon, "T", run.tracer.appThroughputSeries(pfs::Channel::Write),
        t_end);
    appendSeriesCanonical(
        canon, "B", run.tracer.appRequiredSeries(pfs::Channel::Write), t_end);
    appendSeriesCanonical(
        canon, "BL", run.tracer.appLimitSeries(pfs::Channel::Write), t_end);
  }
  checkDigest("fig14_mini", canon, 0x7124f27e2f210614ULL);
}

TEST(GoldenDigest, FtioPublisherPipeline) {
  // The online-publisher stream (every record the tracer emits, in order,
  // as serialized JSONL) plus the FTIO periodicity verdict on the resulting
  // throughput signal. Pins down the ftio_demo / online_metrics pipelines
  // the same way the fig cases pin down the throttling pipelines.
  std::string canon = "ftio-pub-mini\n";

  tmio::MetricsPublisher publisher;
  auto owned = std::make_unique<tmio::MemorySink>();
  tmio::MemorySink* sink = owned.get();
  publisher.addSink(std::move(owned));

  tmio::TracerConfig tcfg =
      workloads::quickTracerConfig(tmio::StrategyKind::UpOnly);
  tcfg.publisher = &publisher;
  mpisim::WorldConfig wcfg;
  wcfg.ranks = 16;
  MiniRun run(workloads::lichtenbergLinkConfig(), wcfg, tcfg);
  workloads::HaccIoConfig hacc;
  hacc.compute_seconds = 1.6;
  hacc.verify_seconds = 1.2;
  hacc.requests_per_write = 9;
  hacc.loops = 4;
  run.run(workloads::haccIoProgram(hacc));
  publisher.flush();

  canon += "records=" + std::to_string(sink->records().size()) + "\n";
  for (const Json& record : sink->records()) canon += record.dump() + "\n";

  const double t_end = run.world.elapsed();
  const tmio::FtioAnalyzer ftio;
  const tmio::PeriodicityResult p = ftio.analyzeSeries(
      run.tracer.appThroughputSeries(pfs::Channel::Write), 0.0, t_end);
  appendNumber(canon, "periodic", p.periodic ? 1.0 : 0.0);
  appendNumber(canon, "period", p.period);
  appendNumber(canon, "frequency", p.frequency);
  appendNumber(canon, "confidence", p.confidence);
  appendNumber(canon, "dominant_bin", static_cast<double>(p.dominant_bin));
  for (const int k : {1, 2, 4, 8, 16}) {
    char key[32];
    std::snprintf(key, sizeof(key), "spectrum[%d]", k);
    appendNumber(canon, key, p.spectrum.at(static_cast<std::size_t>(k)));
  }
  checkDigest("ftio_pub_mini", canon, 0x8721a300507122abULL);
}

TEST(GoldenDigest, ClusterContentionPipeline) {
  // examples/cluster_contention at reduced scale, limited and unlimited:
  // exercises the contention monitor + QoS cap path of the solver.
  std::string canon = "cluster-mini\n";
  for (const bool limit : {true, false}) {
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
    if (limit) cl.enableContentionLimiting(async_id, 1.2, 0.25);

    cl.start();
    const double t_end = sim.run();

    canon += std::string("case=") + (limit ? "limit" : "nolimit") + "\n";
    appendNumber(canon, "t_end", t_end);
    for (const auto id : ids) {
      appendNumber(canon, (cl.spec(id).name + "_start").c_str(),
                   cl.result(id).start);
      appendNumber(canon, (cl.spec(id).name + "_end").c_str(),
                   cl.result(id).end);
    }
    appendNumber(
        canon, "bytes_write",
        static_cast<double>(cl.link().bytesMoved(pfs::Channel::Write)));
    appendSeries(canon, "W", cl.link().totalRateSeries(pfs::Channel::Write),
                 t_end);
  }
  checkDigest("cluster_mini", canon, 0x36ecb4be577764e8ULL);
}

}  // namespace
}  // namespace iobts
