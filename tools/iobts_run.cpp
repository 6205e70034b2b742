// iobts_run -- command-line driver for the simulated TMIO stack.
//
// Compiles and runs a scenario DSL document (src/scenario; grammar in
// DESIGN.md §10) and prints the paper's metrics per world: required
// bandwidth, the app vs. tracer-overhead split, peak write throughput,
// exploitation and the phases and limit changes the tracer saw. Every run
// is a document: rank count, strategy, tolerance, link and burst buffer are
// the document's `world` and `link` keys, so a different run is an edited
// copy of a document, not a flag.
//
//   iobts_run --scenario FILE [--chart] [--ftio] [--jsonl FILE]
//             [--csv PREFIX] [--trace TRACE] [--trace-flush-bytes N]
//             [--summary FILE] [--digest]
//             [--checkpoint-dir DIR --checkpoint-every SECONDS]
//
// or resumes a run from a checkpoint written by a previous (possibly
// killed) invocation, with the same report flags:
//
//   iobts_run --resume CKPT [report flags as above]
//             [--checkpoint-dir DIR --checkpoint-every SECONDS]
//
// --chart prints each world's write-channel T / B / B_L chart and --ftio
// its FTIO periodicity line. --jsonl and --csv dump the raw tmio records;
// a document with several worlds writes one set of files per world, named
// by inserting ".<world name>" before the extension (run.jsonl ->
// run.producer.jsonl; CSV prefix out/run -> out/run.producer_phases.csv).
//
// --trace installs the observability sink for the whole run and records
// every event into a compact binary flight-recorder trace
// (obs::BinaryTraceWriter off the sink's drain hook, so long runs never
// overflow the ring). Read it with tools/iobts_profile (top spans,
// per-request journey critical paths, B_req tables), or convert it to a
// Perfetto-loadable Chrome trace with iobts_profile TRACE --to-chrome
// OUT.json.
//
// --summary writes the deterministic run-summary artifact (canonical
// sections: scenario digest, per-phase B_req table, stall attribution,
// link utilization/backlog timelines, metrics) and prints its digest.
//
// --digest prints the canonical end-of-run digest; a straight run and a
// checkpoint/kill/resume run of the same scenario print identical digests
// (tools/run_crash_resume.sh is the harness asserting exactly that).
//
// Exit codes: 1 when an output file (--jsonl, --csv, --trace, --summary)
// cannot be written, 2 on a usage or scenario error, 3 on a checkpoint
// error and 4 when the run itself fails a kernel check (such as a virtual
// clock that overflows to infinity, or a checkpoint cadence too fine to
// count).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "ckpt/runner.hpp"
#include "number_flag.hpp"

#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/summary.hpp"
#include "obs/trace.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "tmio/ftio.hpp"
#include "tmio/obs_bridge.hpp"
#include "tmio/report.hpp"
#include "tmio/tracer.hpp"
#include "util/ascii_chart.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

using namespace iobts;

namespace {

struct CliOptions {
  std::optional<std::string> scenario;
  std::optional<std::string> resume;
  bool chart = false;
  bool ftio = false;
  std::optional<std::string> jsonl;
  std::optional<std::string> csv;
  std::optional<std::string> trace;
  obs::BinaryTraceWriterConfig trace_config;
  std::optional<std::string> summary;
  bool digest = false;
  std::optional<std::string> checkpoint_dir;
  double checkpoint_every = 0.0;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --scenario FILE [--chart] [--ftio] [--jsonl FILE]\n"
      "          [--csv PREFIX] [--trace TRACE] [--trace-flush-bytes N]\n"
      "          [--summary FILE] [--digest]\n"
      "          [--checkpoint-dir DIR --checkpoint-every SECONDS]\n"
      "       %s --resume CKPT [the same report and checkpoint flags]\n"
      "Rank count, strategy, tolerance, link and burst buffer are keys of\n"
      "the document's world and link blocks (DESIGN.md §10).\n",
      argv0, argv0);
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto number = [&](int& i, auto lo, auto hi) {
    const char* flag = argv[i];
    return numberFlag("iobts_run", flag, next(i), lo, hi);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenario") opt.scenario = next(i);
    else if (arg == "--resume") opt.resume = next(i);
    else if (arg == "--chart") opt.chart = true;
    else if (arg == "--ftio") opt.ftio = true;
    else if (arg == "--jsonl") opt.jsonl = next(i);
    else if (arg == "--csv") opt.csv = next(i);
    else if (arg == "--trace") opt.trace = next(i);
    else if (arg == "--trace-flush-bytes") {
      // Chunk seal threshold for the binary recorder, in the writer's own
      // range. Small values seal many small chunks -- what a live
      // `iobts_profile --follow` wants to see, since only sealed chunks are
      // visible to the tail.
      opt.trace_config.flush_bytes =
          number(i, obs::BinaryTraceWriterConfig::kMinFlushBytes,
                 obs::BinaryTraceWriterConfig::kMaxFlushBytes);
    }
    else if (arg == "--summary") opt.summary = next(i);
    else if (arg == "--digest") opt.digest = true;
    else if (arg == "--checkpoint-dir") opt.checkpoint_dir = next(i);
    else if (arg == "--checkpoint-every") {
      opt.checkpoint_every =
          number(i, 0.0, std::numeric_limits<double>::max());
    }
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (!opt.scenario && !opt.resume) {
    std::fprintf(stderr, "--scenario or --resume is required\n");
    usage(argv[0]);
  }
  // --checkpoint-dir and --checkpoint-every only work as a pair: a dir
  // without a cadence has no capture schedule, a cadence without a dir has
  // nowhere to write. Reject here with usage instead of tripping an
  // internal check later.
  if (opt.checkpoint_dir.has_value() != (opt.checkpoint_every > 0.0)) {
    std::fprintf(stderr,
                 "--checkpoint-dir and --checkpoint-every (positive) must be "
                 "given together\n");
    usage(argv[0]);
  }
  return opt;
}

/// The --trace recording: a sink with the binary writer on its drain hook.
/// Members destroy in reverse order: writer, installation, sink.
struct TraceRecording {
  std::unique_ptr<obs::TraceSink> sink;
  std::unique_ptr<obs::ScopedTraceSink> install;
  std::unique_ptr<obs::BinaryTraceWriter> writer;
};

/// Start recording when --trace is given. Call before any instrumented
/// component exists so setup-time track names land in the trace metadata.
/// Returns false (after saying why) when the trace file cannot be opened.
bool startTrace(const CliOptions& opt, TraceRecording& rec) {
  if (!opt.trace) return true;
  rec.sink = std::make_unique<obs::TraceSink>();
  rec.install = std::make_unique<obs::ScopedTraceSink>(*rec.sink);
  rec.writer = std::make_unique<obs::BinaryTraceWriter>(*rec.sink, *opt.trace,
                                                       opt.trace_config);
  if (!rec.writer->good()) {
    std::fprintf(stderr, "cannot open trace file %s\n", opt.trace->c_str());
    return false;
  }
  return true;
}

/// The write channel's T / B / B_L chart over [0, t_end], in MB/s;
/// `throughput` is the tracer's write-channel T series.
void printChart(const tmio::Tracer& tracer, const StepSeries& throughput,
                Seconds t_end) {
  LineChart chart(90, 14);
  chart.setTitle("write channel: T / B / B_L (MB/s)");
  auto pts = [&](const StepSeries& s) {
    auto v = s.resampleMax(0.0, t_end, 90);
    for (auto& [t, y] : v) y /= 1e6;
    return v;
  };
  chart.addSeries("T", pts(throughput));
  chart.addSeries("B", pts(tracer.appRequiredSeries(pfs::Channel::Write)));
  if (tracer.config().strategy != tmio::StrategyKind::None) {
    chart.addSeries("B_L", pts(tracer.appLimitSeries(pfs::Channel::Write)));
  }
  std::printf("%s", chart.render().c_str());
}

/// Print the per-world paper metrics, shared by straight and resumed runs.
int reportScenario(const CliOptions& opt, scenario::Instance& instance,
                   TraceRecording& trace, const std::string& scenario_text) {
  const std::string& name = instance.spec().name;
  std::printf("scenario=%s worlds=%zu elapsed=%.3f s\n", name.c_str(),
              instance.worldCount(), instance.elapsed());
  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    const mpisim::World& world = instance.world(w);
    const tmio::Tracer& tracer = instance.tracer(w);
    const tmio::ExploitBreakdown e = tmio::exploitBreakdown(tracer, world);
    const tmio::RuntimeSummary runtime = tmio::runtimeSummary(world);
    const StepSeries throughput =
        tracer.appThroughputSeries(pfs::Channel::Write);
    std::printf("world %zu: elapsed %.3f s  required bandwidth %s\n", w,
                world.elapsed(),
                formatBandwidth(tracer.minimalRequiredBandwidth()).c_str());
    std::printf("  app %.3f s  tracer overhead %.3f s  peak write throughput "
                "%s\n",
                runtime.app, runtime.overhead,
                formatBandwidth(throughput.maxValue()).c_str());
    std::printf("  async exploit %.1f %%  async lost %.1f %%  sync I/O "
                "%.1f %%\n",
                e.async_write_exploit + e.async_read_exploit,
                e.async_write_lost + e.async_read_lost,
                e.sync_write + e.sync_read);
    std::printf("  phases traced %zu  limit changes %zu\n",
                tracer.phaseRecords().size(), tracer.limitChanges().size());
    if (opt.ftio) {
      const tmio::PeriodicityResult ftio =
          tmio::FtioAnalyzer().analyzeSeries(throughput, 0.0, runtime.total);
      if (ftio.periodic) {
        std::printf("  I/O periodicity %.3f s period (confidence %.2f)\n",
                    ftio.period, ftio.confidence);
      } else {
        std::printf("  I/O periodicity none detected\n");
      }
    }
    if (opt.chart) printChart(tracer, throughput, runtime.total);
  }
  const scenario::RunStats& stats = instance.stats();
  std::printf(
      "ops=%llu io=%llu write=%llu B read=%llu B collectives=%llu "
      "signals=%llu verified=%llu\n",
      static_cast<unsigned long long>(stats.ops),
      static_cast<unsigned long long>(stats.io_submitted),
      static_cast<unsigned long long>(stats.write_bytes_requested),
      static_cast<unsigned long long>(stats.read_bytes_requested),
      static_cast<unsigned long long>(stats.collectives),
      static_cast<unsigned long long>(stats.signals),
      static_cast<unsigned long long>(stats.verified));

  if (opt.digest) {
    std::printf("run.digest=0x%016llx\n",
                static_cast<unsigned long long>(ckpt::runDigest(instance)));
  }

  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    const tmio::Tracer& tracer = instance.tracer(w);
    if (opt.jsonl) {
      const std::string path = instance.recordPath(*opt.jsonl, w);
      if (!tracer.writeJsonl(path)) {
        std::fprintf(stderr, "cannot write records to %s\n", path.c_str());
        return 1;
      }
    }
    if (opt.csv) {
      const std::string prefix = instance.recordPath(*opt.csv, w);
      if (!tracer.writeCsv(prefix)) {
        std::fprintf(stderr, "cannot write CSV records to %s_*.csv\n",
                     prefix.c_str());
        return 1;
      }
    }
  }
  if (opt.trace) {
    // Fold the application-level B_req series into the trace before it is
    // finalized, so the offline profiler's --breq table works on any trace
    // this driver writes.
    for (std::size_t w = 0; w < instance.worldCount(); ++w) {
      tmio::annotateAppRequired(instance.tracer(w), *trace.sink);
    }
    // The writer drained the sink all along; close() appends the
    // meta/index/footer chunks and the file checksum.
    if (!trace.writer->close()) {
      std::fprintf(stderr, "cannot write trace to %s\n", opt.trace->c_str());
      return 1;
    }
    std::printf(
        "trace: %llu events -> %s (binary; inspect with iobts_profile)\n",
        static_cast<unsigned long long>(trace.writer->events()),
        opt.trace->c_str());
  }
  if (opt.summary) {
    obs::SummaryOptions sopt;
    sopt.scenario_name = instance.spec().name;
    sopt.scenario_text = scenario_text;
    const obs::RunSummary summary = obs::summarizeInstance(instance, sopt);
    if (!obs::writeRunSummary(summary, *opt.summary)) {
      std::fprintf(stderr, "cannot write summary to %s\n",
                   opt.summary->c_str());
      return 1;
    }
    std::printf("summary: %zu sections digest=0x%016llx -> %s\n",
                summary.sections.size(),
                static_cast<unsigned long long>(summary.digest()),
                opt.summary->c_str());
  }
  return 0;
}

void reportCheckpoints(const std::vector<ckpt::CheckpointRecord>& records) {
  double wall_ms = 0.0;
  std::uint64_t bytes = 0;
  for (const auto& r : records) {
    wall_ms += r.capture_wall_ms;
    bytes = r.file_bytes;  // the checkpoints of one run are near-uniform
  }
  std::printf("ckpt.captured=%zu ckpt.file_bytes=%llu ckpt.capture_ms=%.3f\n",
              records.size(), static_cast<unsigned long long>(bytes),
              records.empty() ? 0.0 : wall_ms / records.size());
}

/// Compile + run a scenario DSL file and print per-world paper metrics.
int runScenario(const CliOptions& opt) {
  TraceRecording trace;
  if (!startTrace(opt, trace)) return 1;

  sim::Simulation sim;
  scenario::ScenarioSpec spec;
  // The text that ran: what checkpoints embed and --summary digests.
  std::string text;
  try {
    spec = scenario::loadScenarioFile(*opt.scenario, &text);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  scenario::Instance instance(sim, std::move(spec));
  instance.launch();
  try {
    if (opt.checkpoint_dir) {
      // Checkpointed drive: same event sequence, parks + captures every
      // --checkpoint-every virtual seconds.
      ckpt::CheckpointPolicy policy;
      policy.dir = *opt.checkpoint_dir;
      policy.every = opt.checkpoint_every;
      reportCheckpoints(ckpt::runWithCheckpoints(instance, text, policy));
    } else {
      sim.run();
    }
    instance.requireFinished();
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const ckpt::CheckpointError& e) {
    std::fprintf(stderr, "checkpoint error (%s): %s\n", e.kindName(),
                 e.what());
    return 3;
  }
  return reportScenario(opt, instance, trace, text);
}

/// Restore from a checkpoint, resume to completion, print the same report.
int runResume(const CliOptions& opt) {
  TraceRecording trace;
  if (!startTrace(opt, trace)) return 1;
  try {
    const auto wall_start = std::chrono::steady_clock::now();
    ckpt::RestoredRun run = ckpt::restoreScenarioCheckpoint(*opt.resume);
    const double restore_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - wall_start)
                                  .count();
    std::printf("ckpt.restored=%s ckpt.watermark=%.6f ckpt.restore_ms=%.3f\n",
                opt.resume->c_str(), run.watermark(), restore_ms);
    // The embedded scenario text is the authoritative source for both
    // continued checkpointing and the summary's scenario digest.
    const std::string& text = run.scenarioText();
    if (opt.checkpoint_dir) {
      // Keep checkpointing past the restore point (a resumed run can crash
      // too).
      ckpt::CheckpointPolicy policy;
      policy.dir = *opt.checkpoint_dir;
      policy.every = opt.checkpoint_every;
      reportCheckpoints(
          ckpt::runWithCheckpoints(run.instance(), text, policy));
    } else {
      run.sim().run();
    }
    run.instance().requireFinished();
    return reportScenario(opt, run.instance(), trace, text);
  } catch (const ckpt::CheckpointError& e) {
    std::fprintf(stderr, "checkpoint error (%s): %s\n", e.kindName(),
                 e.what());
    return 3;
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);
  try {
    return opt.resume ? runResume(opt) : runScenario(opt);
  } catch (const CheckError& e) {
    // A document that parses can still break a kernel invariant at run
    // time, e.g. compute delays that overflow the virtual clock.
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 4;
  }
}
