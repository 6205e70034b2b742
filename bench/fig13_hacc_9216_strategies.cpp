// Fig. 13 -- HACC-IO with 9216 ranks: T / B / B_L time series for the
// direct, up-only and adaptive strategies and without a limit.
//
// Reproduced claims: all limiting strategies flatten the I/O burst (T stays
// near B_L instead of spiking); up-only settles at higher limits than
// direct/adaptive; without a limit T spikes to the PFS capacity; waits stay
// near zero everywhere.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "workloads/hacc_io.hpp"

using namespace iobts;
using bench::Options;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);
  bench::banner("Fig. 13",
                "HACC-IO with 9216 ranks: direct / up-only / adaptive / none",
                options);

  const int ranks = options.quick ? 768 : 9216;
  struct Setting {
    const char* label;
    tmio::StrategyKind strategy;
  };
  const std::vector<Setting> settings = {
      {"direct", tmio::StrategyKind::Direct},
      {"up-only", tmio::StrategyKind::UpOnly},
      {"adaptive", tmio::StrategyKind::Adaptive},
      {"no limit", tmio::StrategyKind::None},
  };

  for (const Setting& s : settings) {
    mpisim::WorldConfig wcfg;
    wcfg.ranks = ranks;
    bench::TracedRun run(workloads::lichtenbergLinkConfig(), wcfg,
                         bench::tracerFor(s.strategy, 1.1));
    workloads::HaccIoConfig hacc = workloads::paperScaledHaccConfig(ranks);
    if (options.quick) hacc.loops = 4;
    run.run(workloads::haccIoProgram(hacc));

    std::printf("\n--- %s ---\n", s.label);
    bench::printBandwidthChart(std::string("Fig. 13 ") + s.label, run.tracer,
                               run.world,
                               s.strategy != tmio::StrategyKind::None);
    double lost = 0.0;
    for (int r = 0; r < ranks; ++r) {
      lost += run.tracer.rankSplit(r).write_lost +
              run.tracer.rankSplit(r).read_lost;
    }
    std::printf("  elapsed %.1f s; peak T %s; total wait %.2f rank-s\n",
                run.world.elapsed(),
                formatBandwidth(run.tracer.appThroughputSeries(
                                        pfs::Channel::Write)
                                    .maxValue())
                    .c_str(),
                lost);
    const std::string prefix =
        std::string("fig13_") + (s.strategy == tmio::StrategyKind::None
                                     ? "none"
                                     : s.label);
    bench::maybeCsv(options, prefix + "_T",
                    run.tracer.appThroughputSeries(pfs::Channel::Write));
    bench::maybeCsv(options, prefix + "_B",
                    run.tracer.appRequiredSeries(pfs::Channel::Write));
    bench::maybeCsv(options, prefix + "_BL",
                    run.tracer.appLimitSeries(pfs::Channel::Write));
  }
  return 0;
}
