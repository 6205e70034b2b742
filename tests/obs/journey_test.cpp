// Request-journey tests: every MPI-IO request leaves a flow chain
// (FlowStart -> FlowStep... -> FlowEnd, all sharing journeyOf(rank, id))
// whose events bind to the spans of the layers the request crossed --
// ADIO queue/subrequest/pacing spans, PFS transfer settles, retry
// backoffs. The chain is validated both on raw TraceEvents and by walking
// the Chrome-trace JSON derived from a recording the way Perfetto binds
// flows (innermost enclosing slice on the event's track, inclusive bounds).
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "fault/plan.hpp"
#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "tmio/obs_bridge.hpp"
#include "tmio/tracer.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace iobts {
namespace {

constexpr int kRanks = 2;
constexpr int kLoops = 4;

sim::Task<void> pacedApp(mpisim::RankCtx& ctx) {
  auto file = ctx.open("/pfs/journey_test." + std::to_string(ctx.rank()));
  mpisim::Request pending;
  for (int loop = 0; loop < kLoops; ++loop) {
    if (pending.valid()) co_await ctx.wait(pending);
    pending = co_await file.iwriteAt(0, 8 * kMB, /*tag=*/loop + 1);
    co_await ctx.compute(0.5);
  }
  co_await ctx.wait(pending);
}

/// UpOnly-limited run: from phase 2 on the pacer is throttled far below
/// the fair share, so every request crosses all three layers the journey
/// must connect (queue span, paced subrequests, PFS transfer settles).
struct PacedRun {
  obs::TraceSink sink;
  std::string recording;

  PacedRun() {
    obs::BinaryTraceWriter writer(sink, &recording);
    obs::ScopedTraceSink install(sink);
    sim::Simulation sim;
    pfs::LinkConfig link_cfg;
    link_cfg.read_capacity = 5e9;
    link_cfg.write_capacity = 5e9;
    pfs::SharedLink link(sim, link_cfg);
    pfs::FileStore store;
    tmio::TracerConfig tracer_cfg;
    tracer_cfg.strategy = tmio::StrategyKind::UpOnly;
    tracer_cfg.params.tolerance = 1.1;
    tmio::Tracer tracer(tracer_cfg);
    mpisim::WorldConfig world_cfg;
    world_cfg.ranks = kRanks;
    mpisim::World world(sim, link, store, world_cfg, &tracer);
    tracer.attach(world);
    world.launch(pacedApp);
    sim.run();
    EXPECT_TRUE(writer.close());
  }
};

struct Span {
  double ts = 0.0;
  double dur = 0.0;
  std::string name;
};

struct FlowEvent {
  std::string ph;  // "s" / "t" / "f"
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  double ts = 0.0;
};

/// Names of all spans on one track whose inclusive [ts, ts+dur] window
/// contains `ts` -- the candidates a flow event can bind to. (At span
/// boundaries several candidates coexist: a pacing sleep ends exactly
/// where the request span ends, so we check membership, not a unique
/// innermost match.)
std::vector<std::string> enclosingSpans(const std::vector<Span>& spans,
                                        double ts) {
  std::vector<std::string> names;
  for (const Span& s : spans) {
    if (ts >= s.ts && ts <= s.ts + s.dur) names.push_back(s.name);
  }
  return names;
}

bool containsPrefixed(const std::vector<std::string>& names,
                      std::string_view prefix) {
  return std::any_of(names.begin(), names.end(), [&](const std::string& n) {
    return std::string_view(n).substr(0, prefix.size()) == prefix;
  });
}

TEST(Journey, FlowApiRecordsIdsAndPhases) {
  obs::TraceSink sink;
  sink.flowStart("journey", "io", 1, 2, 0.5, 77);
  sink.flowStep("journey", "io", 3, 4, 0.6, 77);
  sink.flowEnd("journey", "io", 3, 4, 0.7, 77);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, obs::Phase::FlowStart);
  EXPECT_EQ(events[1].phase, obs::Phase::FlowStep);
  EXPECT_EQ(events[2].phase, obs::Phase::FlowEnd);
  for (const obs::TraceEvent& ev : events) {
    EXPECT_EQ(ev.flow, 77u);
    EXPECT_EQ(std::string_view(ev.category), "journey");
  }
}

TEST(Journey, JourneyOfIsStableAndNonZero) {
  EXPECT_NE(mpisim::journeyOf(0, 0), 0u);
  EXPECT_EQ(mpisim::journeyOf(3, 7), mpisim::journeyOf(3, 7));
  EXPECT_NE(mpisim::journeyOf(0, 1), mpisim::journeyOf(1, 0));
  // rtio journeys live in the high-bit half of the id space.
  EXPECT_EQ(mpisim::journeyOf(0, 0) >> 63, 0u);
}

TEST(Journey, ExportedChainSpansAdioPacerAndLinkSettle) {
  // The acceptance-criteria walk: parse the Chrome JSON derived from the
  // recording and check that at least one async write's flow chain starts
  // in the ADIO queue span, steps through a paced window *and* a PFS
  // transfer settle, and ends bound to the request span.
  PacedRun run;
  const Json doc = Json::parse(obs::chromeJsonFromBinaryTrace(
      obs::decodeBinaryTrace(run.recording, "<memory>")));
  const auto& events = doc.asObject().at("traceEvents").asArray();

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Span>> tracks;
  std::map<std::string, std::vector<FlowEvent>> journeys;  // by id string
  for (const Json& ev : events) {
    const auto& o = ev.asObject();
    const std::string& ph = o.at("ph").asString();
    if (ph == "M") continue;
    const auto pid = static_cast<std::uint32_t>(o.at("pid").asNumber());
    const auto tid = static_cast<std::uint32_t>(o.at("tid").asNumber());
    if (ph == "X") {
      tracks[{pid, tid}].push_back(Span{o.at("ts").asNumber(),
                                        o.at("dur").asNumber(),
                                        o.at("name").asString()});
    } else if (ph == "s" || ph == "t" || ph == "f") {
      journeys[o.at("id").asString()].push_back(
          FlowEvent{ph, pid, tid, o.at("ts").asNumber()});
    }
  }

  // One journey per request, each with exactly one start and one end.
  ASSERT_EQ(journeys.size(), static_cast<std::size_t>(kRanks * kLoops));
  std::size_t full_chains = 0;
  for (const auto& [id, chain] : journeys) {
    std::size_t starts = 0, ends = 0;
    bool queue = false, pace = false, settle = false, request = false;
    for (const FlowEvent& f : chain) {
      starts += f.ph == "s";
      ends += f.ph == "f";
      const std::vector<std::string> bound =
          enclosingSpans(tracks[{f.pid, f.tid}], f.ts);
      ASSERT_FALSE(bound.empty()) << "unbound flow event in journey " << id;
      if (f.ph == "s") {
        EXPECT_EQ(f.pid, obs::track::kAdio);
        EXPECT_TRUE(containsPrefixed(bound, "adio.queue"));
        queue = true;
      } else if (f.ph == "f") {
        EXPECT_TRUE(containsPrefixed(bound, "adio.request."));
        request = true;
      } else if (f.pid == obs::track::kStreams) {
        EXPECT_TRUE(containsPrefixed(bound, "transfer."));
        settle = true;
      } else if (f.pid == obs::track::kAdio &&
                 containsPrefixed(bound, "adio.pace")) {
        pace = true;
      }
    }
    EXPECT_EQ(starts, 1u) << id;
    EXPECT_EQ(ends, 1u) << id;
    EXPECT_TRUE(queue && settle && request) << id;
    if (queue && pace && settle && request) ++full_chains;
  }
  // The UpOnly limit kicks in from phase 2, so most journeys include a
  // paced window; at least one full AdioEngine -> pacer -> SharedLink
  // chain must exist.
  EXPECT_GT(full_chains, 0u);
}

sim::Task<void> brownoutApp(mpisim::RankCtx& ctx) {
  auto file = ctx.open("/pfs/journey_fault." + std::to_string(ctx.rank()));
  mpisim::Request pending = co_await file.iwriteAt(0, 8 * kMB, /*tag=*/1);
  co_await ctx.compute(0.05);
  co_await ctx.wait(pending);
}

TEST(Journey, FaultedRetriesKeepTheJourneyId) {
  // Brownout: every write transfer completing before t=1.0 draws an EIO
  // verdict, so the request's first attempts fault and back off until a
  // retry settles past the window. All of it -- faulted settles, backoff
  // spans, the final successful settle -- must carry one journey id.
  obs::TraceSink sink;
  obs::ScopedTraceSink install(sink);
  sim::Simulation sim;
  pfs::LinkConfig link_cfg;
  link_cfg.read_capacity = 1e9;
  link_cfg.write_capacity = 1e9;
  pfs::SharedLink link(sim, link_cfg);
  fault::FaultPlan plan(/*seed=*/7);
  plan.addTransferFault(fault::TransferFaultRule{
      pfs::Channel::Write, {/*begin=*/0.0, /*end=*/1.0},
      /*probability=*/1.0});
  link.installFaultPlan(plan);
  pfs::FileStore store;
  mpisim::WorldConfig world_cfg;
  world_cfg.ranks = 1;
  world_cfg.retry.max_retries = 32;
  world_cfg.retry.base_backoff = 1e-2;
  world_cfg.retry.max_backoff = 0.5;
  mpisim::World world(sim, link, store, world_cfg);
  world.launch(brownoutApp);
  sim.run();

  const mpisim::AdioEngine::Stats io = world.ioStats();
  ASSERT_GT(io.retries, 0u);
  ASSERT_EQ(io.failures, 0u);  // the brownout ends; the request succeeds

  const std::uint64_t journey = mpisim::journeyOf(/*rank=*/0, /*id=*/0);
  std::vector<obs::TraceEvent> spans;
  std::size_t starts = 0, ends = 0;
  std::vector<std::pair<std::uint32_t, double>> steps;  // (pid, ts)
  for (const obs::TraceEvent& ev : sink.snapshot()) {
    if (ev.phase == obs::Phase::Complete) spans.push_back(ev);
    if (ev.flow != journey) continue;
    if (ev.phase == obs::Phase::FlowStart) ++starts;
    if (ev.phase == obs::Phase::FlowEnd) ++ends;
    if (ev.phase == obs::Phase::FlowStep) steps.emplace_back(ev.pid, ev.ts);
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(ends, 1u);

  // Every retried attempt emits its own flow steps, all under the same id:
  // the faulted settle, the backoff span, and finally the clean settle.
  // Steps are emitted at their span's start instant on the span's track.
  auto stepBoundTo = [&](const char* name, std::uint32_t pid) {
    std::size_t n = 0;
    for (const obs::TraceEvent& s : spans) {
      if (s.pid != pid || std::string_view(s.name) != name) continue;
      n += std::count(steps.begin(), steps.end(), std::pair(pid, s.ts));
    }
    return n;
  };
  EXPECT_EQ(stepBoundTo("transfer.faulted", obs::track::kStreams),
            static_cast<std::size_t>(io.retries));
  EXPECT_GE(stepBoundTo("adio.backoff", obs::track::kAdio), 1u);
  EXPECT_EQ(stepBoundTo("transfer.write", obs::track::kStreams), 1u);

  // No other journey exists in this single-request run.
  for (const obs::TraceEvent& ev : sink.snapshot()) {
    if (ev.flow != 0) {
      EXPECT_EQ(ev.flow, journey);
    }
  }
}

TEST(Journey, TmioBreqSeriesMatchesPhaseRecords) {
  // The live B_req counter samples the tracer emits at phase close must
  // reproduce its own phase report exactly: one sample per PhaseRecord, at
  // te, valued at the record's Eq. 1 requirement.
  obs::TraceSink sink;
  obs::ScopedTraceSink install(sink);
  sim::Simulation sim;
  pfs::LinkConfig link_cfg;
  link_cfg.read_capacity = 5e9;
  link_cfg.write_capacity = 5e9;
  pfs::SharedLink link(sim, link_cfg);
  pfs::FileStore store;
  tmio::TracerConfig tracer_cfg;
  tracer_cfg.strategy = tmio::StrategyKind::UpOnly;
  tracer_cfg.params.tolerance = 1.1;
  tmio::Tracer tracer(tracer_cfg);
  mpisim::WorldConfig world_cfg;
  world_cfg.ranks = kRanks;
  mpisim::World world(sim, link, store, world_cfg, &tracer);
  tracer.attach(world);
  world.launch(pacedApp);
  sim.run();

  ASSERT_FALSE(tracer.phaseRecords().empty());
  std::vector<obs::TraceEvent> samples;
  for (const obs::TraceEvent& ev : sink.snapshot()) {
    if (ev.pid != obs::track::kTmio || ev.phase != obs::Phase::Counter) {
      continue;
    }
    if (std::string_view(ev.name).rfind("tmio.breq.", 0) == 0) {
      samples.push_back(ev);
    }
  }
  ASSERT_EQ(samples.size(), tracer.phaseRecords().size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const tmio::PhaseRecord& p = tracer.phaseRecords()[i];
    const obs::TraceEvent& ev = samples[i];
    EXPECT_EQ(ev.tid, static_cast<std::uint32_t>(p.rank));
    EXPECT_DOUBLE_EQ(ev.ts, p.te);
    EXPECT_DOUBLE_EQ(ev.value, p.required);
    EXPECT_GT(ev.value, 0.0);
    EXPECT_EQ(std::string_view(ev.name), p.channel == pfs::Channel::Read
                                             ? "tmio.breq.read"
                                             : "tmio.breq.write");
  }
  // And the tmio track is named for the viewer.
  EXPECT_EQ(sink.processNames().count(obs::track::kTmio), 1u);

  // Bridge aggregates: the registry's tmio series must agree with the
  // tracer's own records.
  obs::MetricsRegistry registry;
  tmio::exportTracerMetrics(tracer, registry);
  EXPECT_EQ(registry.counter("tmio.phases"), tracer.phaseRecords().size());
  const obs::Histogram* bw = registry.histogram("tmio.write.required_bw");
  ASSERT_NE(bw, nullptr);
  EXPECT_EQ(bw->total, tracer.phaseRecords().size());
  EXPECT_GT(bw->sum, 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("tmio.min_required_bw"),
                   tracer.minimalRequiredBandwidth());
  EXPECT_GT(registry.gauge("tmio.min_required_bw"), 0.0);
  ASSERT_NE(registry.histogram("tmio.write.phase_seconds"), nullptr);

  // Eq. 3 annotation: one counter sample per step-series point, on the
  // channel-indexed tmio tracks.
  obs::TraceSink annotated;
  const std::size_t annotated_samples =
      tmio::annotateAppRequired(tracer, annotated);
  EXPECT_EQ(annotated_samples,
            tracer.appRequiredSeries(pfs::Channel::Write).points().size() +
                tracer.appRequiredSeries(pfs::Channel::Read).points().size());
  EXPECT_EQ(annotated.recorded(), annotated_samples);
  double max_value = 0.0;
  for (const obs::TraceEvent& ev : annotated.snapshot()) {
    EXPECT_EQ(ev.phase, obs::Phase::Counter);
    EXPECT_EQ(ev.pid, obs::track::kTmio);
    max_value = std::max(max_value, ev.value);
  }
  EXPECT_GT(max_value, 0.0);  // a nonzero required-bandwidth series
}

}  // namespace
}  // namespace iobts
