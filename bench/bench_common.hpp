// Shared scaffolding for the figure-reproduction benches.
//
// Every fig* binary reproduces one figure of the paper: it re-runs the
// corresponding experiment on the simulated stack and prints the same
// rows/series the paper plots (plus optional CSV dumps).
//
// Common flags (also honoured as environment variables):
//   --quick / IOBTS_QUICK=1    smaller rank lists for smoke runs
//   --csv <dir> / IOBTS_CSV_DIR=<dir>   dump raw series as CSV
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpisim/world.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "tmio/report.hpp"
#include "tmio/tracer.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"
#include "workloads/quick.hpp"

namespace iobts::bench {

struct Options {
  bool quick = false;
  std::optional<std::string> csv_dir;

  static Options parse(int argc, char** argv);
};

/// Print the figure banner (number + caption of the paper figure).
void banner(const std::string& figure, const std::string& caption,
            const Options& options);

/// One traced run: simulation + PFS + tracer + world, wired together.
struct TracedRun {
  TracedRun(pfs::LinkConfig link_cfg, mpisim::WorldConfig world_cfg,
            tmio::TracerConfig tracer_cfg);

  /// Launch `program` and run the simulation to completion.
  void run(mpisim::World::RankProgram program);

  sim::Simulation sim;
  pfs::SharedLink link;
  pfs::FileStore store;
  tmio::Tracer tracer;
  mpisim::World world;
};

/// Tracer config for a given strategy with the paper's overhead model.
tmio::TracerConfig tracerFor(tmio::StrategyKind strategy, double tolerance,
                             bool apply_limits = true);

/// Resample a StepSeries into (t, value/scale) chart points.
std::vector<std::pair<double, double>> chartPoints(const StepSeries& series,
                                                   double t_end,
                                                   std::size_t n,
                                                   double scale);

/// Dump a StepSeries as CSV (t,value) if options.csv_dir is set.
void maybeCsv(const Options& options, const std::string& name,
              const StepSeries& series);

/// Render the paper's T / B / B_L chart for the write channel.
void printBandwidthChart(const std::string& title, const tmio::Tracer& tracer,
                         const mpisim::World& world, bool show_limit);

}  // namespace iobts::bench
