#include "cases.hpp"

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "ckpt/capture.hpp"
#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "tmio/obs_bridge.hpp"
#include "tmio/report.hpp"
#include "tmio/tracer.hpp"
#include "util/rng.hpp"
#include "workloads/hacc_io.hpp"
#include "workloads/quick.hpp"
#include "workloads/wacomm.hpp"

namespace perfbench {

using namespace iobts;

namespace {

// --- Sizes ------------------------------------------------------------------

// Full-scale sizes keep each workload's character (rank count, traffic mix)
// and set the run length so one case takes about a second or two on a
// current x86 core; see perfbench/README.md for the reference measurements.
struct Sizes {
  int hacc_ranks;
  int hacc_loops;
  int wacomm_ranks;
  int wacomm_hours;
  int noisy_ranks;
  int noisy_loops;
  std::array<int, 8> sweep_ranks;
  int sweep_loops;
};

const Sizes& sizes(Scale scale) {
  static const Sizes kFull{9216, 4, 4096, 25, 384, 4,
                           {192, 384, 576, 768, 1152, 1536, 2304, 3072}, 4};
  static const Sizes kTiny{64, 1, 64, 3, 16, 1,
                           {2, 3, 4, 5, 6, 7, 8, 9}, 1};
  return scale == Scale::Full ? kFull : kTiny;
}

// --- Seeds ------------------------------------------------------------------

// Every random input of a case comes from the workload seed: the link's
// noise seed and the worlds' jitter seed. DSL integer literals are int64,
// so the derived seeds keep 62 bits.
struct Seeds {
  std::uint64_t link;
  std::uint64_t world;
};

Seeds seedsFor(std::uint64_t seed) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 62) - 1;
  std::uint64_t state = seed;
  const std::uint64_t link = splitmix64(state) & kMask;
  const std::uint64_t world = splitmix64(state) & kMask;
  return {link, world};
}

// --- Clocks -----------------------------------------------------------------

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and CPU time of one case, from the start of setup.
class CaseClock {
 public:
  explicit CaseClock(CaseResult& result)
      : result_(result), wall0_(Clock::now()), cpu0_(processCpuSeconds()) {}
  void setupDone() { result_.setup_s = secondsBetween(wall0_, Clock::now()); }
  void finish() {
    result_.wall_s = secondsBetween(wall0_, Clock::now());
    result_.cpu_s = processCpuSeconds() - cpu0_;
  }

 private:
  CaseResult& result_;
  Clock::time_point wall0_;
  double cpu0_;
};

// --- Canonical text ---------------------------------------------------------

// The fields tests/support/golden.hpp serializes: elapsed time, exploit
// breakdown, bytes moved per channel, and the write-channel T/B/B_L series
// resampled on 65 points. Exact renders hexfloats; Canonical snaps
// |v| < 1e-3 to zero and keeps nine significant digits, the golden gate's
// policy for the noisy pipeline whose quantum sums carry toolchain-dependent
// low bits.
enum class Precision { Exact, Canonical };

void appendNumber(std::string& out, const std::string& key, double value,
                  Precision precision) {
  char buf[96];
  if (precision == Precision::Exact) {
    std::snprintf(buf, sizeof(buf), "%s=%a\n", key.c_str(), value);
  } else {
    if (std::fabs(value) < 1e-3) value = 0.0;
    std::snprintf(buf, sizeof(buf), "%s=%.9g\n", key.c_str(), value);
  }
  out += buf;
}

void appendSeries(std::string& out, const char* key, const StepSeries& series,
                  double t_end, Precision precision) {
  for (int i = 0; i <= 64; ++i) {
    const double t = t_end * static_cast<double>(i) / 64.0;
    appendNumber(out, std::string(key) + "[" + std::to_string(i) + "]",
                 series.at(t), precision);
  }
}

std::string canonicalCase(const mpisim::World& world,
                          const tmio::Tracer& tracer,
                          const pfs::SharedLink& link, Precision precision) {
  std::string out = "case=main\n";
  const double t_end = world.elapsed();
  appendNumber(out, "elapsed", t_end, precision);
  const tmio::ExploitBreakdown e = tmio::exploitBreakdown(tracer, world);
  appendNumber(out, "sync_write", e.sync_write, precision);
  appendNumber(out, "async_write_lost", e.async_write_lost, precision);
  appendNumber(out, "async_read_lost", e.async_read_lost, precision);
  appendNumber(out, "async_write_exploit", e.async_write_exploit, precision);
  appendNumber(out, "async_read_exploit", e.async_read_exploit, precision);
  appendNumber(out, "bytes_write",
               static_cast<double>(link.bytesMoved(pfs::Channel::Write)),
               precision);
  appendNumber(out, "bytes_read",
               static_cast<double>(link.bytesMoved(pfs::Channel::Read)),
               precision);
  appendSeries(out, "T", tracer.appThroughputSeries(pfs::Channel::Write),
               t_end, precision);
  appendSeries(out, "B", tracer.appRequiredSeries(pfs::Channel::Write), t_end,
               precision);
  appendSeries(out, "BL", tracer.appLimitSeries(pfs::Channel::Write), t_end,
               precision);
  return out;
}

// --- Invariants and counters ------------------------------------------------

void require(CaseResult& result, bool ok, const std::string& what) {
  if (!ok) result.failures.push_back(what);
}

void requireWorld(CaseResult& result, const mpisim::World& world) {
  require(result, world.finished(), "world did not finish");
  require(result, world.failedRanks() == 0, "ranks failed");
  require(result, world.ioStats().failures == 0, "mpisim io failures");
}

void requireInstance(CaseResult& result, scenario::Instance& instance) {
  try {
    instance.requireFinished();
  } catch (const scenario::ScenarioError& e) {
    result.failures.push_back(e.what());
  }
  const scenario::RunStats& stats = instance.stats();
  require(result,
          instance.link().bytesMoved(pfs::Channel::Write) ==
              stats.write_bytes_requested,
          "link write bytes differ from bytes requested");
  require(result,
          instance.link().bytesMoved(pfs::Channel::Read) ==
              stats.read_bytes_requested,
          "link read bytes differ from bytes requested");
  require(result, stats.verify_failures == 0, "verify_failures");
  require(result, stats.failed_requests == 0, "failed_requests");
  require(result, stats.time_monotone, "time_monotone violated");
  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    requireWorld(result, instance.world(w));
  }
}

/// Add the layers' exported counters to `layer`.
void addCounters(LayerStats& layer, const sim::Simulation& sim,
                 const pfs::SharedLink& link, const mpisim::World& world,
                 const tmio::Tracer& tracer) {
  obs::MetricsRegistry registry;
  sim.exportMetrics(registry);
  link.exportMetrics(registry);
  world.exportMetrics(registry);
  auto both = [&](const char* prefix, const char* suffix) {
    return registry.counter(std::string(prefix) + "write" + suffix) +
           registry.counter(std::string(prefix) + "read" + suffix);
  };
  layer.events += registry.counter("sim.events_processed");
  layer.resolves += both("pfs.", ".resolves_executed");
  layer.resolves_skipped += both("pfs.", ".resolves_skipped");
  layer.full_solves += both("pfs.", ".full_solves");
  layer.bytes_moved += both("pfs.", ".bytes_moved");
  layer.subrequests += both("mpisim.pacer.", ".subrequests");
  layer.pace_sleeps += both("mpisim.pacer.", ".sleeps");
  layer.io_retries += registry.counter("mpisim.io.retries");
  layer.io_failures += registry.counter("mpisim.io.failures");
  layer.phases += tracer.phaseRecords().size();
  layer.limit_changes += tracer.limitChanges().size();
}

void addInstanceCounters(LayerStats& layer, scenario::Instance& instance) {
  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    addCounters(layer, instance.sim(), instance.link(), instance.world(w),
                instance.tracer(w));
  }
  layer.ops += instance.stats().ops;
  layer.requests += instance.stats().io_submitted;
}

void runGuarded(CaseResult& result, const std::function<void()>& body) {
  try {
    body();
  } catch (const std::exception& e) {
    result.failures.push_back(std::string("exception: ") + e.what());
  }
}

// --- tmio hook timing -------------------------------------------------------

// Times every hook call of the tracer. Tracer::attach requires
// world.hooks() == this, so the timing sits in a subclass rather than in a
// wrapping IoHooks. Calls are aggregated per hook into a count and a total.
class HookTimedTracer final : public tmio::Tracer {
 public:
  using tmio::Tracer::Tracer;

  void onSubmit(const mpisim::RequestInfo& info) override {
    Timer t(totals_[kSubmit]);
    Tracer::onSubmit(info);
  }
  void onComplete(const mpisim::RequestInfo& info) override {
    Timer t(totals_[kComplete]);
    Tracer::onComplete(info);
  }
  void onWaitEnter(const mpisim::RequestInfo& info) override {
    Timer t(totals_[kWaitEnter]);
    Tracer::onWaitEnter(info);
  }
  void onWaitExit(const mpisim::RequestInfo& info, Seconds blocked) override {
    Timer t(totals_[kWaitExit]);
    Tracer::onWaitExit(info, blocked);
  }
  void onSyncStart(const mpisim::RequestInfo& info) override {
    Timer t(totals_[kSyncStart]);
    Tracer::onSyncStart(info);
  }
  void onSyncEnd(const mpisim::RequestInfo& info) override {
    Timer t(totals_[kSyncEnd]);
    Tracer::onSyncEnd(info);
  }
  Seconds onFinalize(int rank) override {
    Timer t(totals_[kFinalize]);
    return Tracer::onFinalize(rank);
  }

  /// Fold the totals into `layer` and, when tracing, into the span log.
  void report(LayerStats& layer, SpanLog* spans) const {
    static constexpr std::array<const char*, kHooks> kNames = {
        "tmio.hook.on_submit",     "tmio.hook.on_complete",
        "tmio.hook.on_wait_enter", "tmio.hook.on_wait_exit",
        "tmio.hook.on_sync_start", "tmio.hook.on_sync_end",
        "tmio.hook.on_finalize"};
    for (std::size_t h = 0; h < kHooks; ++h) {
      const double total =
          std::chrono::duration<double>(totals_[h].total).count();
      layer.hook_calls += totals_[h].count;
      layer.hooks_s += total;
      if (spans != nullptr) {
        spans->addAggregate(kNames[h], totals_[h].count, total);
      }
    }
    // Every MPI-IO call passes exactly one of the two submit hooks.
    layer.requests +=
        totals_[kSubmit].count + totals_[kSyncStart].count;
  }

 private:
  enum Hook : std::size_t {
    kSubmit, kComplete, kWaitEnter, kWaitExit, kSyncStart, kSyncEnd,
    kFinalize, kHooks
  };
  struct Total {
    std::uint64_t count = 0;
    Clock::duration total{};
  };
  struct Timer {
    explicit Timer(Total& total) : total_(total), start_(Clock::now()) {}
    ~Timer() {
      ++total_.count;
      total_.total += Clock::now() - start_;
    }
    Total& total_;
    Clock::time_point start_;
  };

  std::array<Total, kHooks> totals_{};
};

// --- Workload definitions ---------------------------------------------------

/// HACC-IO calibrated like the fig harnesses' paperScaledHacc: phase
/// lengths grow as ranks^0.55, nine array requests per write.
workloads::HaccIoConfig paperScaledHacc(int ranks, int loops) {
  workloads::HaccIoConfig cfg;
  const double scale = std::pow(static_cast<double>(ranks), 0.55);
  cfg.compute_seconds = 0.30 * scale;
  cfg.verify_seconds = 0.25 * scale;
  cfg.requests_per_write = 9;
  cfg.loops = loops;
  return cfg;
}

/// The fig harnesses' TracedRun wiring for hand-coded workloads: link,
/// tracer, then world, with the tracer attached before launch.
struct HandCodedRun {
  HandCodedRun(pfs::LinkConfig link_cfg, mpisim::WorldConfig world_cfg,
               std::unique_ptr<tmio::Tracer> tmio_tracer)
      : link(sim, link_cfg),
        tracer(std::move(tmio_tracer)),
        world(sim, link, store, world_cfg, tracer.get()) {
    tracer->attach(world);
  }

  /// Canonical text, hash and world invariants of the finished run.
  void finish(CaseResult& result, SpanLog* spans) {
    std::string canon;
    timed(spans, "tmio.report", result.layer.report_s, [&] {
      canon = canonicalCase(world, *tracer, link, Precision::Exact);
    });
    Scope check(spans, "check");
    result.digest = hashName(canon);
    requireWorld(result, world);
  }

  /// Require the link to have moved exactly the bytes the program issued.
  void requireBytes(CaseResult& result, Bytes write, Bytes read) const {
    require(result, link.bytesMoved(pfs::Channel::Write) == write,
            "link write bytes differ from bytes requested");
    require(result, link.bytesMoved(pfs::Channel::Read) == read,
            "link read bytes differ from bytes requested");
  }

  sim::Simulation sim;
  pfs::SharedLink link;
  pfs::FileStore store;
  std::unique_ptr<tmio::Tracer> tracer;
  mpisim::World world;
};

std::string seedLine(std::uint64_t seed) {
  return "seed = " + std::to_string(seed);
}

/// scenarios/fig10_quick.scn at `ranks` x `hours`, up-only.
std::string wacommDocument(int ranks, int hours, const Seeds& seeds) {
  return "scenario \"wacomm-dsl\"\n"
         "link {\n"
         "  write = 106e9\n  read = 120e9\n  client_cap = 1.5e9\n"
         "  congestion = 2e-4\n  " + seedLine(seeds.link) + "\n}\n"
         "let particles = 200000\n"
         "let bpp = 2048\n"
         "let iters = " + std::to_string(hours) + "\n"
         "let per = particles / ranks\n"
         "let share = (rank == ranks - 1 ? particles - per * (ranks - 1) : "
         "per) * bpp\n"
         "let my_offset = per * bpp * rank\n"
         "world main { ranks = " + std::to_string(ranks) +
         "  strategy = \"up-only\"  tolerance = 1.1  " +
         seedLine(seeds.world) + " }\n"
         "program main {\n"
         "  if rank == 0 {\n"
         "    read file \"/pfs/wacomm.restart\" at 0 bytes particles * bpp\n"
         "  }\n"
         "  bcast share\n"
         "  loop hour : iters {\n"
         "    compute 2.2 + 48.0 / ranks\n"
         "    wait pending\n"
         "    if hour == iters - 1 {\n"
         "      write file \"/pfs/wacomm.out\" at my_offset bytes share tag "
         "splitmix((rank << 24) ^ hour ^ 0x3a90aa)\n"
         "    } else {\n"
         "      iwrite file \"/pfs/wacomm.out\" at my_offset bytes share tag "
         "splitmix((rank << 24) ^ hour ^ 0x3a90aa) -> pending\n"
         "    }\n"
         "  }\n"
         "  wait pending\n"
         "}\n";
}

struct HaccPoint {
  int ranks;
  int loops;
  const char* strategy;
  bool noisy;  // the Fig. 14 noisy link and compute jitter
};

/// scenarios/fig13_quick.scn generalized to a rank count, loop count,
/// strategy and (optionally) the Fig. 14 noisy link.
std::string haccDocument(const HaccPoint& point, const Seeds& seeds) {
  std::string link = "link {\n  write = 106e9\n  read = 120e9\n"
                     "  client_cap = 1.5e9\n";
  std::string world_extra;
  if (point.noisy) {
    // Stragglers relative to the per-client regime: the reference sits
    // 1.4x above the write requirement (payload over the verify window),
    // as in bench/fig14_hacc_1536_direct.
    const workloads::HaccIoConfig hacc =
        paperScaledHacc(point.ranks, point.loops);
    const double write_requirement =
        static_cast<double>(workloads::haccBytesPerRankPerLoop(hacc)) /
        hacc.verify_seconds;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  noise = 0.4\n  noise_ref = %.17g\n  quantum = 0.005\n",
                  1.4 * write_requirement);
    link += buf;
    world_extra = "  jitter = 0.03";
  }
  link += "  " + seedLine(seeds.link) + "\n}\n";
  return "scenario \"hacc\"\n" + link +
         "let payload = 1000000 * 38\n"
         "let reqs = 9\n"
         "let loops = " + std::to_string(point.loops) + "\n"
         "let per = payload / reqs\n"
         "let compute_s = 0.30 * pow(ranks, 0.55)\n"
         "let verify_block = 0.25 * pow(ranks, 0.55) + payload / 8.0e9\n"
         "world main { ranks = " + std::to_string(point.ranks) +
         "  strategy = \"" + point.strategy + "\"  tolerance = 1.1" +
         world_extra + "  " + seedLine(seeds.world) + " }\n"
         "program main {\n"
         "  loop l : loops {\n"
         "    bcast 8\n"
         "    compute compute_s\n"
         "    wait read_req\n"
         "    if l > 0 {\n"
         "      verify file \"/pfs/hacc.{rank}\" at 64 bytes payload tag "
         "splitmix((rank << 20) ^ (l - 1) ^ 0x9acc10)\n"
         "    }\n"
         "    write file \"/pfs/hacc.{rank}\" at 0 bytes 64 tag 0x4ead0001\n"
         "    loop c : reqs {\n"
         "      iwrite file \"/pfs/hacc.{rank}\" at 64 + c * per bytes "
         "(c == reqs - 1 ? payload - per * (reqs - 1) : per) tag "
         "splitmix((rank << 20) ^ l ^ 0x9acc10) -> writes\n"
         "    }\n"
         "    bcast 8\n"
         "    compute verify_block\n"
         "    waitall writes\n"
         "    iread file \"/pfs/hacc.{rank}\" at 64 bytes payload -> read_req\n"
         "  }\n"
         "  compute compute_s\n"
         "  wait read_req\n"
         "  verify file \"/pfs/hacc.{rank}\" at 64 bytes payload tag "
         "splitmix((rank << 20) ^ (loops - 1) ^ 0x9acc10)\n"
         "}\n";
}

std::vector<HaccPoint> sweepPoints(Scale scale) {
  static constexpr std::array<const char*, 4> kStrategies = {
      "direct", "up-only", "adaptive", "none"};
  const Sizes& s = sizes(scale);
  std::vector<HaccPoint> points;
  for (std::size_t i = 0; i < s.sweep_ranks.size(); ++i) {
    points.push_back({s.sweep_ranks[i], s.sweep_loops,
                      kStrategies[i % kStrategies.size()], false});
  }
  return points;
}

/// Parse a generated document and build its Instance on `sim`.
std::unique_ptr<scenario::Instance> compileDocument(sim::Simulation& sim,
                                                    const std::string& text,
                                                    SpanLog* spans,
                                                    LayerStats& layer) {
  scenario::ScenarioSpec spec =
      timed(spans, "scenario.parse", layer.parse_s,
            [&] { return scenario::parseScenario(text); });
  return timed(spans, "scenario.compile", layer.compile_s, [&] {
    return std::make_unique<scenario::Instance>(sim, std::move(spec));
  });
}

/// Report, ckpt digest and invariants of one finished DSL instance; returns
/// its canonical text.
std::string finishInstance(CaseResult& result, scenario::Instance& instance,
                           Precision precision, SpanLog* spans) {
  std::string canon;
  timed(spans, "tmio.report", result.layer.report_s, [&] {
    canon = canonicalCase(instance.world(0), instance.tracer(0),
                          instance.link(), precision);
  });
  Scope check(spans, "check");
  {
    Scope digest(spans, "ckpt.run_digest");
    result.state_digests.push_back(ckpt::runDigest(instance));
  }
  requireInstance(result, instance);
  return canon;
}

}  // namespace

// --- Cases ------------------------------------------------------------------

CaseResult runHacc(const CaseConfig& config, bool time_hooks) {
  CaseResult result;
  SpanLog* spans = config.spans;
  const Sizes& s = sizes(config.scale);
  const Seeds seeds = seedsFor(config.seed);
  Scope root(spans, "case.hacc_9216");
  CaseClock clock(result);

  std::unique_ptr<HandCodedRun> run;
  workloads::HaccIoStats hacc_stats;
  const workloads::HaccIoConfig hacc =
      paperScaledHacc(s.hacc_ranks, s.hacc_loops);
  runGuarded(result, [&] {
    {
      Scope setup(spans, "setup");
      pfs::LinkConfig link_cfg = workloads::lichtenbergLinkConfig();
      link_cfg.seed = seeds.link;
      mpisim::WorldConfig world_cfg;
      world_cfg.ranks = s.hacc_ranks;
      world_cfg.seed = seeds.world;
      const tmio::TracerConfig tracer_cfg =
          workloads::quickTracerConfig(tmio::StrategyKind::Direct);
      run = std::make_unique<HandCodedRun>(
          link_cfg, world_cfg,
          time_hooks ? std::make_unique<HookTimedTracer>(tracer_cfg)
                     : std::make_unique<tmio::Tracer>(tracer_cfg));
      timed(spans, "mpisim.launch", result.layer.launch_s, [&] {
        run->world.launch(workloads::haccIoProgram(hacc, &hacc_stats));
      });
    }
    clock.setupDone();
    timed(spans, "sim.run", result.layer.run_s, [&] { run->sim.run(); });
    run->finish(result, spans);
    const auto loops = static_cast<Bytes>(s.hacc_ranks) * s.hacc_loops;
    const Bytes payload = workloads::haccBytesPerRankPerLoop(hacc);
    run->requireBytes(result, loops * (payload + hacc.header_bytes),
                      loops * payload);
    require(result,
            hacc_stats.verify_failures == 0 &&
                hacc_stats.verified_loops == static_cast<long>(loops),
            "HACC-IO verify failures");
  });
  clock.finish();
  if (run) {
    addCounters(result.layer, run->sim, run->link, run->world, *run->tracer);
    if (time_hooks) {
      static_cast<const HookTimedTracer&>(*run->tracer)
          .report(result.layer, spans);
    }
  }
  return result;
}

CaseResult runWacomm(const CaseConfig& config, WacommVariant variant) {
  CaseResult result;
  SpanLog* spans = config.spans;
  const Sizes& s = sizes(config.scale);
  const Seeds seeds = seedsFor(config.seed);
  Scope root(spans, variant == WacommVariant::Recorded
                        ? "case.wacomm_recorded"
                    : variant == WacommVariant::Unrecorded
                        ? "case.wacomm_unrecorded"
                        : "case.wacomm_hand_coded");
  CaseClock clock(result);

  if (variant == WacommVariant::HandCoded) {
    // The hand-coded twin of the generated document: same link, tracer,
    // world and program parameters, so its canonical hash must match.
    pfs::LinkConfig link_cfg = workloads::fig10QuickLinkConfig();
    link_cfg.seed = seeds.link;
    mpisim::WorldConfig world_cfg;
    world_cfg.ranks = s.wacomm_ranks;
    world_cfg.seed = seeds.world;
    HandCodedRun run(link_cfg, world_cfg,
                     std::make_unique<tmio::Tracer>(
                         workloads::quickTracerConfig(
                             tmio::StrategyKind::UpOnly)));
    workloads::WacommConfig wacomm = workloads::fig10QuickWacommConfig();
    wacomm.iterations = s.wacomm_hours;
    runGuarded(result, [&] {
      timed(spans, "mpisim.launch", result.layer.launch_s,
            [&] { run.world.launch(workloads::wacommProgram(wacomm)); });
      clock.setupDone();
      timed(spans, "sim.run", result.layer.run_s, [&] { run.sim.run(); });
      run.finish(result, spans);
      const auto total =
          static_cast<Bytes>(wacomm.particles) * wacomm.bytes_per_particle;
      run.requireBytes(result,
                       total * static_cast<Bytes>(wacomm.iterations), total);
    });
    clock.finish();
    addCounters(result.layer, run.sim, run.link, run.world, *run.tracer);
    return result;
  }

  const bool record = variant == WacommVariant::Recorded;
  std::unique_ptr<obs::TraceSink> sink;
  std::unique_ptr<obs::ScopedTraceSink> install;
  std::unique_ptr<obs::BinaryTraceWriter> writer;
  sim::Simulation sim;
  std::unique_ptr<scenario::Instance> instance;
  runGuarded(result, [&] {
    {
      Scope setup(spans, "setup");
      const std::string text =
          wacommDocument(s.wacomm_ranks, s.wacomm_hours, seeds);
      if (record) {
        // Installed before any instrumented component exists, as iobts_run
        // --trace-format bin does, so setup-time track names are recorded.
        result.trace_path = config.scratch_dir + "/wacomm_dsl_recorded." +
                            std::to_string(getpid()) + ".bin";
        sink = std::make_unique<obs::TraceSink>();
        install = std::make_unique<obs::ScopedTraceSink>(*sink);
        writer = std::make_unique<obs::BinaryTraceWriter>(*sink,
                                                          result.trace_path);
        require(result, writer->good(), "cannot open " + result.trace_path);
      }
      instance = compileDocument(sim, text, spans, result.layer);
      timed(spans, "mpisim.launch", result.layer.launch_s,
            [&] { instance->launch(); });
    }
    clock.setupDone();
    timed(spans, "sim.run", result.layer.run_s, [&] { sim.run(); });
    if (record) {
      {
        Scope annotate(spans, "obs.annotate");
        tmio::annotateAppRequired(instance->tracer(0), *sink);
      }
      const bool closed = timed(spans, "obs.close", result.layer.close_s,
                                [&] { return writer->close(); });
      require(result, closed, "cannot write " + result.trace_path);
      result.layer.obs_events = writer->events();
      result.layer.obs_bytes = writer->bytesWritten();
    }
    result.digest =
        hashName(finishInstance(result, *instance, Precision::Exact, spans));
  });
  clock.finish();
  if (instance) addInstanceCounters(result.layer, *instance);
  return result;
}

CaseResult runHaccNoisy(const CaseConfig& config) {
  CaseResult result;
  SpanLog* spans = config.spans;
  const Sizes& s = sizes(config.scale);
  Scope root(spans, "case.hacc_noisy");
  CaseClock clock(result);
  sim::Simulation sim;
  std::unique_ptr<scenario::Instance> instance;
  runGuarded(result, [&] {
    {
      Scope setup(spans, "setup");
      const std::string text =
          haccDocument({s.noisy_ranks, s.noisy_loops, "direct", true},
                       seedsFor(config.seed));
      instance = compileDocument(sim, text, spans, result.layer);
      timed(spans, "mpisim.launch", result.layer.launch_s,
            [&] { instance->launch(); });
    }
    clock.setupDone();
    timed(spans, "sim.run", result.layer.run_s, [&] { sim.run(); });
    result.digest = hashName(
        finishInstance(result, *instance, Precision::Canonical, spans));
  });
  clock.finish();
  if (instance) addInstanceCounters(result.layer, *instance);
  return result;
}

unsigned sweepWorkers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : std::min(4u, cores);
}

CaseResult runSweep(const CaseConfig& config, SweepVariant variant) {
  CaseResult result;
  SpanLog* spans = config.spans;
  const Seeds seeds = seedsFor(config.seed);
  const std::vector<HaccPoint> points = sweepPoints(config.scale);
  const bool sharded = variant == SweepVariant::Sharded;
  Scope root(spans, sharded ? "case.sweep_sharded" : "case.sweep_serial");
  CaseClock clock(result);

  std::string canon;
  auto finishPoint = [&](std::size_t p, scenario::Instance& instance) {
    canon += "point=" + std::to_string(p) + "\n" +
             finishInstance(result, instance, Precision::Exact, spans);
  };

  if (!sharded) {
    // Each point alone on a plain Simulation, one after the other: the
    // serial reference the sharded run's efficiency is measured against.
    runGuarded(result, [&] {
      for (std::size_t p = 0; p < points.size(); ++p) {
        sim::Simulation sim;
        std::unique_ptr<scenario::Instance> instance = compileDocument(
            sim, haccDocument(points[p], seeds), spans, result.layer);
        timed(spans, "mpisim.launch", result.layer.launch_s,
              [&] { instance->launch(); });
        timed(spans, "sim.run", result.layer.run_s, [&] { sim.run(); });
        finishPoint(p, *instance);
        addInstanceCounters(result.layer, *instance);
      }
      result.digest = hashName(canon);
    });
    clock.finish();
    return result;
  }

  sim::ShardedConfig sharded_cfg;
  sharded_cfg.shards = static_cast<std::uint32_t>(points.size());
  sharded_cfg.lookahead = sim::kInfiniteTime;
  sharded_cfg.threads = sweepWorkers();
  sim::ShardedSimulation fleet(sharded_cfg);
  std::vector<std::unique_ptr<scenario::Instance>> instances;
  runGuarded(result, [&] {
    {
      Scope setup(spans, "setup");
      for (std::size_t p = 0; p < points.size(); ++p) {
        instances.push_back(compileDocument(
            fleet.shard(static_cast<sim::ShardId>(p)),
            haccDocument(points[p], seeds), spans, result.layer));
      }
      timed(spans, "mpisim.launch", result.layer.launch_s, [&] {
        for (auto& instance : instances) instance->launch();
      });
    }
    clock.setupDone();
    timed(spans, "sim.run", result.layer.run_s, [&] { fleet.run(); });
    for (std::size_t p = 0; p < instances.size(); ++p) {
      finishPoint(p, *instances[p]);
    }
    result.digest = hashName(canon);
  });
  clock.finish();
  for (auto& instance : instances) addInstanceCounters(result.layer, *instance);
  result.layer.window_stalls = fleet.stats().window_stalls;
  return result;
}

void checkRecordedTrace(CaseResult& result) {
  runGuarded(result, [&] {
    const obs::BinaryTrace trace = obs::readBinaryTrace(result.trace_path);
    require(result, trace.events.size() == result.layer.obs_events,
            "recorded trace re-read " + std::to_string(trace.events.size()) +
                " events, writer reported " +
                std::to_string(result.layer.obs_events));
  });
  std::remove(result.trace_path.c_str());
}

std::optional<std::uint64_t> pinnedDigest(const std::string& workload,
                                           Scale scale, std::uint64_t seed) {
  // Full-scale digests. Only hacc_noisy draws random numbers (link noise,
  // compute jitter), so only its digest depends on the seed: it is pinned
  // for the default seed 1 and the held-out seed 2 that a claimed gain must
  // also hold on. The other workloads hash the same for every seed. Every
  // case line prints the digest it computed; after an intended change of
  // simulated results, review the change and copy the new values here.
  struct Pin {
    const char* workload;
    std::optional<std::uint64_t> seed;  // nullopt: every seed
    std::uint64_t digest;
  };
  static const Pin kPins[] = {
      {"hacc_9216", std::nullopt, 0x31eb4c1d731f7fbdULL},
      {"wacomm_dsl_recorded", std::nullopt, 0x8f655161d2478964ULL},
      {"hacc_noisy", 1, 0x4ee30127892818ccULL},
      {"hacc_noisy", 2, 0x392888a261e7b184ULL},
      {"sweep_sharded", std::nullopt, 0xb3c7b3a6f2040deaULL},
  };
  if (scale != Scale::Full) return std::nullopt;
  for (const Pin& pin : kPins) {
    if (workload == pin.workload && (!pin.seed || *pin.seed == seed)) {
      return pin.digest;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
