#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace iobts::bench {

Options Options::parse(int argc, char** argv) {
  Options options;
  if (const char* env = std::getenv("IOBTS_QUICK")) {
    options.quick = std::strcmp(env, "0") != 0;
  }
  if (const char* env = std::getenv("IOBTS_CSV_DIR")) {
    options.csv_dir = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--full") {
      options.quick = false;
    } else if (arg == "--csv" && i + 1 < argc) {
      options.csv_dir = argv[++i];
    }
  }
  if (options.csv_dir) {
    std::filesystem::create_directories(*options.csv_dir);
  }
  return options;
}

void banner(const std::string& figure, const std::string& caption,
            const Options& options) {
  std::printf("=====================================================\n");
  std::printf("%s -- %s%s\n", figure.c_str(), caption.c_str(),
              options.quick ? "  [quick mode]" : "");
  std::printf("=====================================================\n");
}

TracedRun::TracedRun(pfs::LinkConfig link_cfg, mpisim::WorldConfig world_cfg,
                     tmio::TracerConfig tracer_cfg)
    : link(sim, link_cfg),
      tracer(tracer_cfg),
      world(sim, link, store, world_cfg, &tracer) {
  tracer.attach(world);
}

void TracedRun::run(mpisim::World::RankProgram program) {
  world.launch(std::move(program));
  sim.run();
}

tmio::TracerConfig tracerFor(tmio::StrategyKind strategy, double tolerance,
                             bool apply_limits) {
  tmio::TracerConfig cfg;
  cfg.strategy = strategy;
  cfg.params.tolerance = tolerance;
  cfg.apply_limits = apply_limits;
  return cfg;  // default OverheadModel = the paper-calibrated one
}

std::vector<std::pair<double, double>> chartPoints(const StepSeries& series,
                                                   double t_end,
                                                   std::size_t n,
                                                   double scale) {
  if (series.empty() || t_end <= 0.0) return {};
  auto pts = series.resampleMax(0.0, t_end, n);
  for (auto& [t, v] : pts) v /= scale;
  return pts;
}

void maybeCsv(const Options& options, const std::string& name,
              const StepSeries& series) {
  if (!options.csv_dir) return;
  CsvWriter csv(*options.csv_dir + "/" + name + ".csv");
  csv.header({"t", "value"});
  for (const auto& [t, v] : series.points()) csv.rowNumeric({t, v});
}

void printBandwidthChart(const std::string& title, const tmio::Tracer& tracer,
                         const mpisim::World& world, bool show_limit) {
  const double t_end = world.elapsed();
  LineChart chart(96, 16);
  chart.setTitle(title + "  (MB/s vs time)");
  chart.addSeries(
      "T", chartPoints(tracer.appThroughputSeries(pfs::Channel::Write), t_end,
                       96, 1e6));
  chart.addSeries(
      "B", chartPoints(tracer.appRequiredSeries(pfs::Channel::Write), t_end,
                       96, 1e6));
  if (show_limit) {
    chart.addSeries(
        "B_L", chartPoints(tracer.appLimitSeries(pfs::Channel::Write), t_end,
                           96, 1e6));
  }
  chart.setXLabel("time (s), 0 .. " + formatDuration(t_end));
  std::printf("%s", chart.render().c_str());
  if (tracer.firstLimitTime() >= 0.0) {
    std::printf("  limit first applied at t=%.2f s\n",
                tracer.firstLimitTime());
  }
}

}  // namespace iobts::bench
