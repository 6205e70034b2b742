// Fig. 8 + Fig. 9 -- WaComM++ with 96 ranks: application-level T / B / B_L
// over time, without a limit (Fig. 8) and with the up-only strategy
// (Fig. 9).
//
// Reproduced claims: without a limit the throughput T spikes far above the
// required bandwidth B (short I/O bursts). With up-only limiting T follows
// B_L, the (tolerance-scaled) value learned from the previous phase, and in
// every phase T ends before B -- no blocking I/O.
#include <cstdio>

#include "bench_common.hpp"
#include "workloads/wacomm.hpp"

using namespace iobts;
using bench::Options;

namespace {

workloads::WacommConfig paperWacomm(bool quick) {
  workloads::WacommConfig cfg;
  cfg.bytes_per_particle = 2048;
  cfg.iteration_compute_core_seconds = 48.0;
  cfg.iteration_fixed_seconds = 2.2;
  if (quick) cfg.iterations = 12;
  return cfg;
}

void runCase(const char* figure, tmio::StrategyKind strategy,
             const Options& options, const std::string& csv_prefix) {
  mpisim::WorldConfig wcfg;
  wcfg.ranks = 96;
  bench::TracedRun run(workloads::lichtenbergLinkConfig(), wcfg,
                       bench::tracerFor(strategy, 1.1));
  run.run(workloads::wacommProgram(paperWacomm(options.quick)));

  std::printf("\n--- %s (%s) ---\n", figure,
              strategy == tmio::StrategyKind::None ? "no limit" : "up-only");
  bench::printBandwidthChart(figure, run.tracer, run.world,
                             strategy != tmio::StrategyKind::None);
  const double peak_T =
      run.tracer.appThroughputSeries(pfs::Channel::Write).maxValue();
  const double peak_B =
      run.tracer.appRequiredSeries(pfs::Channel::Write).maxValue();
  std::printf("  peak T = %s, peak B = %s (T/B = %.1fx)\n",
              formatBandwidth(peak_T).c_str(), formatBandwidth(peak_B).c_str(),
              peak_B > 0 ? peak_T / peak_B : 0.0);
  std::printf("  elapsed: %.1f s\n", run.world.elapsed());

  bench::maybeCsv(options, csv_prefix + "_T",
                  run.tracer.appThroughputSeries(pfs::Channel::Write));
  bench::maybeCsv(options, csv_prefix + "_B",
                  run.tracer.appRequiredSeries(pfs::Channel::Write));
  bench::maybeCsv(options, csv_prefix + "_BL",
                  run.tracer.appLimitSeries(pfs::Channel::Write));
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);
  bench::banner("Fig. 8 + Fig. 9",
                "WaComM++ with 96 ranks: T vs B (no limit) and T vs B_L vs B "
                "(up-only)",
                options);
  runCase("Fig. 8", tmio::StrategyKind::None, options, "fig08_wacomm96");
  runCase("Fig. 9", tmio::StrategyKind::UpOnly, options, "fig09_wacomm96");
  return 0;
}
