// Trace export walkthrough: record a traced asynchronous-I/O workload into
// a binary flight-recorder trace, derive a Perfetto-loadable Chrome trace
// from it, dump a unified metrics table, and cross-check the recording
// against the link's own resolve counters.
//
//   $ ./trace_export [RUN_DIR]          # default: trace_export.out/
//   $ ./tools/iobts_profile trace_export.out/trace.bin
//   $ ./tools/iobts_profile trace_export.out/trace.bin --critical-path
//
// Everything lands in one run directory (created if needed) instead of
// littering the invoking directory. Load trace.json in
// https://ui.perfetto.dev (or chrome://tracing) and enable flow arrows:
// each I/O request is one "journey" — an arrow chain from the ADIO queue
// span through its paced subrequests into the shared-link settle and back
// to the completion. The sink is installed *before* the instrumented
// components are constructed so their setup-time track names land in the
// trace metadata; everything the components record afterwards is derived
// purely from virtual time and stable simulation ids, so rerunning this
// example produces byte-identical trace files.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "fault/plan.hpp"
#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "tmio/obs_bridge.hpp"
#include "tmio/tracer.hpp"
#include "util/units.hpp"

using namespace iobts;

namespace {

/// Same shape as quickstart: 8 loops of [iwrite 32 MB] [compute 2 s] [wait].
sim::Task<void> application(mpisim::RankCtx& ctx) {
  auto file = ctx.open("/pfs/trace_export.out." + std::to_string(ctx.rank()));
  mpisim::Request pending;
  for (int loop = 0; loop < 8; ++loop) {
    if (pending.valid()) co_await ctx.wait(pending);
    pending = co_await file.iwriteAt(0, 32 * kMB, /*tag=*/loop + 1);
    co_await ctx.compute(2.0);
  }
  co_await ctx.wait(pending);
}

}  // namespace

int main(int argc, char** argv) {
  // 0. One run directory for every artifact this example writes.
  const std::string run_dir = argc > 1 ? argv[1] : "trace_export.out";
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create run directory %s: %s\n",
                 run_dir.c_str(), ec.message().c_str());
    return 1;
  }

  // 1. Install the sink first. Everything below is traced. The binary
  // writer drains the ring into trace.bin as the run progresses (at half
  // occupancy), so the recording never needs the whole history resident
  // and no event is ever overwritten.
  obs::TraceSink sink;  // default: 65536 events, no wall-clock capture
  const std::string recording_path = run_dir + "/trace.bin";
  obs::BinaryTraceWriter recorder(sink, recording_path);
  if (!recorder.good()) {
    std::fprintf(stderr, "cannot open %s\n", recording_path.c_str());
    return 1;
  }
  obs::ScopedTraceSink install(sink);

  sim::Simulation sim;

  pfs::LinkConfig link_cfg;
  link_cfg.read_capacity = 10e9;
  link_cfg.write_capacity = 10e9;
  pfs::SharedLink link(sim, link_cfg);
  pfs::FileStore store;

  // A degradation window in the middle of the run makes the trace
  // interesting: watch the per-stream transfer spans stretch while the
  // "fault" instants mark the planned and applied window edges.
  fault::FaultPlan plan(/*seed=*/42);
  plan.degradeChannel(pfs::Channel::Write, /*factor=*/0.25,
                      {/*begin=*/6.0, /*end=*/10.0});
  link.installFaultPlan(plan);

  tmio::TracerConfig tracer_cfg;
  tracer_cfg.strategy = tmio::StrategyKind::UpOnly;
  tracer_cfg.params.tolerance = 1.1;
  tmio::Tracer tracer(tracer_cfg);

  mpisim::WorldConfig world_cfg;
  world_cfg.ranks = 4;
  mpisim::World world(sim, link, store, world_cfg, &tracer);
  tracer.attach(world);

  world.launch(application);
  sim.run();

  std::printf("run finished in %.2f virtual seconds\n", world.elapsed());

  // 2. Annotate the trace with the tracer's Eq. 3 application-level
  // required-bandwidth series, then collect every layer's metrics --
  // including the tmio bandwidth aggregates and the sink's own span
  // histograms -- into one registry.
  tmio::annotateAppRequired(tracer, sink);
  obs::MetricsRegistry metrics;
  sim.exportMetrics(metrics);
  link.exportMetrics(metrics);
  world.exportMetrics(metrics);
  tmio::exportTracerMetrics(tracer, metrics);
  sink.exportMetrics(metrics);

  // 3. Finish the recording and read it back. The ring was drained all
  // along, so the cross-checks below run over the decoded recording --
  // the whole run -- not over what the ring still holds.
  if (!recorder.close()) {
    std::fprintf(stderr, "cannot write %s\n", recording_path.c_str());
    return 1;
  }
  const obs::BinaryTrace trace = obs::readBinaryTrace(recording_path);
  std::printf("trace: %zu events recorded, %llu dropped -> %s\n",
              trace.events.size(),
              static_cast<unsigned long long>(trace.totals.dropped),
              recording_path.c_str());

  // 4. Cross-check: the trace must agree with the link's own counters.
  const auto write_stats = link.resolveStats(pfs::Channel::Write);
  std::uint64_t resolve_spans = 0;
  std::uint64_t skip_instants = 0;
  std::uint64_t journey_starts = 0;
  for (const obs::BinEvent& ev : trace.events) {
    // Journeys: each request's flow chain starts with one "s" event.
    if (ev.phase == obs::Phase::FlowStart) ++journey_starts;
    if (ev.pid != obs::track::kLink) continue;
    if (ev.tid != static_cast<std::uint32_t>(pfs::Channel::Write)) continue;
    const std::string_view name = trace.strings[ev.name];
    if (name == "resolve") ++resolve_spans;
    if (name == "resolve.skip") ++skip_instants;
  }
  std::printf(
      "write channel: %llu resolve spans (link says %llu executed), "
      "%llu skip instants (link says %llu skipped)\n",
      static_cast<unsigned long long>(resolve_spans),
      static_cast<unsigned long long>(write_stats.executed),
      static_cast<unsigned long long>(skip_instants),
      static_cast<unsigned long long>(write_stats.lazy_skipped));
  std::printf(
      "%llu request journeys in the trace (follow the flow arrows in "
      "Perfetto, or run iobts_profile --critical-path)\n",
      static_cast<unsigned long long>(journey_starts));

  // 5. Export: the Chrome document is derived from the recording, and the
  // metrics table goes next to it.
  const std::string trace_path = run_dir + "/trace.json";
  const std::string metrics_path = run_dir + "/metrics.txt";
  std::ofstream json(trace_path, std::ios::binary | std::ios::trunc);
  json << obs::chromeJsonFromBinaryTrace(trace);
  json.close();
  if (!json || !obs::writeMetrics(metrics, metrics_path)) {
    std::fprintf(stderr, "export failed\n");
    return 1;
  }
  std::printf("\nwrote %s (load it in ui.perfetto.dev)\n", trace_path.c_str());
  std::printf("wrote %s:\n\n%s", metrics_path.c_str(),
              metrics.dumpText().c_str());
  return 0;
}
