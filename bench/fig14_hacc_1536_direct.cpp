// Fig. 14 -- HACC-IO with 1536 ranks and the direct strategy under I/O
// variability.
//
// Reproduced claim: with noisy I/O (congestion / slow transfers) the
// throughput T sometimes fails to reach the applied limit B_L, leaving the
// phase's bytes unfinished when the wait arrives -> short waiting times
// that slightly prolong the runtime (the case motivating the paper's
// future "global coordination" work).
#include <cstdio>

#include "bench_common.hpp"
#include "workloads/hacc_io.hpp"

using namespace iobts;
using bench::Options;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);
  bench::banner("Fig. 14",
                "HACC-IO with 1536 ranks, direct strategy, noisy I/O",
                options);

  const int ranks = options.quick ? 384 : 1536;

  auto run_case = [&](double noise_sigma) {
    mpisim::WorldConfig wcfg;
    wcfg.ranks = ranks;
    wcfg.compute_jitter_sigma = 0.03;
    workloads::HaccIoConfig hacc = workloads::paperScaledHaccConfig(ranks);
    pfs::LinkConfig link = workloads::lichtenbergLinkConfig();
    link.noise_sigma = noise_sigma;  // per-transfer lognormal slowdowns
    // Stragglers relative to the per-client rate regime (not the whole
    // link): the reference sits just above the write limit the direct
    // strategy will apply (payload over the verify window), so a slow
    // sub-request can fall below the rank's applied limit.
    const double write_requirement =
        static_cast<double>(workloads::haccBytesPerRankPerLoop(hacc)) /
        hacc.verify_seconds;
    link.noise_reference_rate = 1.4 * write_requirement;
    link.recompute_quantum = noise_sigma > 0.0 ? 5e-3 : 0.0;
    bench::TracedRun run(link, wcfg,
                         bench::tracerFor(tmio::StrategyKind::Direct, 1.1));
    if (options.quick) hacc.loops = 4;
    run.run(workloads::haccIoProgram(hacc));

    double lost = 0.0;
    for (int r = 0; r < ranks; ++r) {
      lost += run.tracer.rankSplit(r).write_lost +
              run.tracer.rankSplit(r).read_lost;
    }
    std::printf("\n--- noise sigma = %.1f ---\n", noise_sigma);
    bench::printBandwidthChart("Fig. 14", run.tracer, run.world, true);
    std::printf("  elapsed %.1f s; wait (lost) time %.2f rank-s\n",
                run.world.elapsed(), lost);
    bench::maybeCsv(options,
                    "fig14_T_sigma" + std::to_string(noise_sigma),
                    run.tracer.appThroughputSeries(pfs::Channel::Write));
    return std::pair<double, double>(run.world.elapsed(), lost);
  };

  const auto clean = run_case(0.0);
  const auto noisy = run_case(0.4);
  std::printf("\nclean run: %.1f s with %.2f rank-s of waits\n", clean.first,
              clean.second);
  std::printf("noisy run: %.1f s with %.2f rank-s of waits\n", noisy.first,
              noisy.second);
  std::printf("paper shape: under I/O variability the limit is occasionally "
              "not attainable -> short waits appear and the runtime grows "
              "slightly.\n");
  return 0;
}
