// Fig. 11 -- HACC-IO application-time distribution for growing rank counts
// under all four settings (direct / up-only / adaptive / no limit), tol 1.1.
//
// Reproduced claims: with any limiting strategy the exploitation of the
// compute phases by the asynchronous writes grows with the rank count,
// while without a limit it shrinks; sync (header) I/O stays small.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "workloads/hacc_io.hpp"

using namespace iobts;
using bench::Options;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);
  bench::banner("Fig. 11",
                "HACC-IO time distribution: direct / up-only / adaptive / "
                "none, tol 1.1",
                options);

  const std::vector<int> rank_list =
      options.quick ? std::vector<int>{96, 384}
                    : std::vector<int>{96, 768, 1536, 4608, 9216};
  struct Setting {
    const char* label;
    tmio::StrategyKind strategy;
  };
  const std::vector<Setting> settings = {
      {"direct", tmio::StrategyKind::Direct},
      {"uponly", tmio::StrategyKind::UpOnly},
      {"adapt", tmio::StrategyKind::Adaptive},
      {"none", tmio::StrategyKind::None},
  };

  StackedBars bars(44);
  bars.setSegments({"sync", "lost", "rexp", "wexp", "comp"});
  std::unique_ptr<CsvWriter> csv;
  if (options.csv_dir) {
    csv = std::make_unique<CsvWriter>(*options.csv_dir + "/fig11_hacc.csv");
    csv->header({"ranks", "setting", "sync_pct", "lost_pct",
                 "read_exploit_pct", "write_exploit_pct", "compute_pct",
                 "elapsed_s"});
  }

  for (const int ranks : rank_list) {
    for (const Setting& s : settings) {
      mpisim::WorldConfig wcfg;
      wcfg.ranks = ranks;
      bench::TracedRun run(workloads::lichtenbergLinkConfig(), wcfg,
                           bench::tracerFor(s.strategy, 1.1));
      workloads::HaccIoConfig hacc = workloads::paperScaledHaccConfig(ranks);
      if (options.quick) hacc.loops = 4;
      run.run(workloads::haccIoProgram(hacc));

      const tmio::ExploitBreakdown e =
          tmio::exploitBreakdown(run.tracer, run.world);
      const double sync = e.sync_write + e.sync_read;
      const double lost = e.async_write_lost + e.async_read_lost;
      bars.addBar(std::to_string(ranks) + "r " + s.label,
                  {sync, lost, e.async_read_exploit, e.async_write_exploit,
                   e.compute_io_free});
      if (csv) {
        csv->row({std::to_string(ranks), s.label, std::to_string(sync),
                  std::to_string(lost), std::to_string(e.async_read_exploit),
                  std::to_string(e.async_write_exploit),
                  std::to_string(e.compute_io_free),
                  std::to_string(run.world.elapsed())});
      }
    }
  }
  std::printf("%s\n", bars.render().c_str());
  std::printf("paper shape: write exploit ('wexp') grows with ranks for all "
              "limiting strategies and shrinks without one; up-only sits "
              "below direct/adaptive (it keeps higher limits).\n");
  return 0;
}
