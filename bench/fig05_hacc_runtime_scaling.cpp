// Fig. 5 -- HACC-IO runtime up to 9216 MPI ranks: Total vs App vs (TMIO)
// Overhead.
//
// Also prints the Sec. VI-B scaling claim: the application-level required
// bandwidth grows with the rank count (paper: ~0.7 GB/s at 1 rank to
// ~58 GB/s at 9216 ranks) while the phase length grows as well (paper:
// 0.6 s to 105 s).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "workloads/hacc_io.hpp"

using namespace iobts;
using bench::Options;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);
  bench::banner("Fig. 5", "HACC-IO runtime variation up to 9216 ranks",
                options);

  const std::vector<int> rank_list =
      options.quick ? std::vector<int>{1, 16, 96}
                    : std::vector<int>{1, 16, 96, 384, 1536, 4608, 9216};

  std::printf("%-8s %-12s %-12s %-12s %-14s %-12s\n", "ranks", "total (s)",
              "app (s)", "overhead", "B_min", "phase len");
  std::unique_ptr<CsvWriter> csv;
  if (options.csv_dir) {
    csv = std::make_unique<CsvWriter>(*options.csv_dir + "/fig05_runtime.csv");
    csv->header({"ranks", "total_s", "app_s", "overhead_s", "B_min_bps",
                 "phase_len_s"});
  }

  for (const int ranks : rank_list) {
    mpisim::WorldConfig wcfg;
    wcfg.ranks = ranks;
    bench::TracedRun run(workloads::lichtenbergLinkConfig(), wcfg,
                         bench::tracerFor(tmio::StrategyKind::Direct, 1.1));
    workloads::HaccIoConfig hacc = workloads::paperScaledHaccConfig(ranks);
    run.run(workloads::haccIoProgram(hacc));

    const tmio::RuntimeSummary summary = tmio::runtimeSummary(run.world);
    const double required = run.tracer.minimalRequiredBandwidth();
    // Mean write-phase window length across ranks/phases.
    RunningStats window;
    for (const auto& p : run.tracer.phaseRecords()) {
      if (p.channel == pfs::Channel::Write) window.add(p.te - p.ts);
    }
    std::printf("%-8d %-12.2f %-12.2f %-12.3f %-14s %-12.3f\n", ranks,
                summary.total, summary.app, summary.overhead,
                formatBandwidth(required).c_str(), window.mean());
    if (csv) {
      csv->rowNumeric({static_cast<double>(ranks), summary.total, summary.app,
                       summary.overhead, required, window.mean()});
    }
  }

  std::printf("\npaper shape: Total/App grow moderately with ranks and track "
              "each other; Overhead stays a small additive component. "
              "B_min grows strongly with ranks; phase length grows too.\n");
  return 0;
}
