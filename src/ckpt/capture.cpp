#include "ckpt/capture.hpp"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "ckpt/snapshot.hpp"
#include "mpisim/world.hpp"
#include "obs/metrics.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/instance.hpp"
#include "tmio/tracer.hpp"
#include "util/hash.hpp"

namespace iobts::ckpt {

std::string hexfloat(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

void SectionBuilder::line(std::string_view key, std::string_view value) {
  text_ += key;
  text_ += '=';
  text_ += value;
  text_ += '\n';
}

void SectionBuilder::kv(std::string_view key, std::uint64_t value) {
  line(key, std::to_string(value));
}

void SectionBuilder::kv(std::string_view key, int value) {
  line(key, std::to_string(value));
}

void SectionBuilder::kv(std::string_view key, bool value) {
  line(key, value ? "1" : "0");
}

void SectionBuilder::kv(std::string_view key, double value) {
  line(key, hexfloat(value));
}

void SectionBuilder::hex(std::string_view key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  line(key, buf);
}

Section metricsSection(scenario::Instance& instance, std::string name) {
  obs::MetricsRegistry registry;
  instance.sim().exportMetrics(registry);
  instance.link().exportMetrics(registry);
  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    instance.world(w).exportMetrics(registry);
  }
  return {std::move(name), registry.dumpText()};
}

namespace {

/// Section name for one captured subsystem ("state.<leaf>").
std::string stateName(const std::string& leaf) { return kStatePrefix + leaf; }

Section captureSim(scenario::Instance& instance, const CaptureOptions& opt) {
  sim::Simulation& sim = instance.sim();
  SectionBuilder b;
  if (opt.include_clock) {
    b.kv("now", sim.now());
    b.hex("schedule", sim.pendingEventsDigest());
  }
  b.kv("events_processed", sim.eventsProcessed());
  b.kv("pending_events", sim.pendingEvents());
  b.kv("next_seq", sim.nextSequence());
  b.kv("live_processes", sim.liveProcesses());
  return {stateName("sim"), b.take()};
}

Section captureLink(scenario::Instance& instance, const CaptureOptions& opt) {
  pfs::SharedLink& link = instance.link();
  SectionBuilder b;
  for (std::size_t c = 0; c < pfs::kChannels; ++c) {
    const auto channel = static_cast<pfs::Channel>(c);
    const std::string p = pfs::channelName(channel);
    b.kv(p + ".bytes_moved", link.bytesMoved(channel));
    b.kv(p + ".active_transfers", link.activeTransfers(channel));
    b.kv(p + ".effective_capacity", link.effectiveCapacity(channel));
    b.kv(p + ".contended", link.contended(channel));
    if (opt.include_clock) {
      // The lazy-settle bound is clock-like: a checkpointing driver's final
      // empty runUntil() window cannot change it, but mid-run it is part of
      // the exact state a replay must land on.
      b.kv(p + ".next_interesting", link.nextInterestingTime(channel));
    }
    const pfs::SharedLink::ResolveStats rs = link.resolveStats(channel);
    b.kv(p + ".resolves_executed", rs.executed);
    b.kv(p + ".resolves_lazy_skipped", rs.lazy_skipped);
    b.kv(p + ".full_solves", rs.full_solves);
    b.kv(p + ".faulted_transfers", rs.faulted_transfers);
    b.kv(p + ".capacity_edges", rs.capacity_edges);
  }
  const std::size_t streams = link.streamCount();
  b.kv("streams", streams);
  WordDigest bytes_digest;
  for (pfs::StreamId s = 0; s < streams; ++s) {
    bytes_digest.mix(static_cast<std::uint64_t>(link.streamBytes(s)));
  }
  b.hex("stream_bytes", bytes_digest.value());
  return {stateName("link"), b.take()};
}

Section captureStats(scenario::Instance& instance) {
  const scenario::RunStats& s = instance.stats();
  SectionBuilder b;
  b.kv("ops", s.ops);
  b.kv("io_submitted", s.io_submitted);
  b.kv("write_bytes_requested",
       static_cast<std::uint64_t>(s.write_bytes_requested));
  b.kv("read_bytes_requested",
       static_cast<std::uint64_t>(s.read_bytes_requested));
  b.kv("collectives", s.collectives);
  b.kv("signals", s.signals);
  b.kv("recvs", s.recvs);
  b.kv("verified", s.verified);
  b.kv("verify_failures", s.verify_failures);
  b.kv("failed_requests", s.failed_requests);
  b.kv("time_monotone", s.time_monotone);
  return {stateName("stats"), b.take()};
}

Section captureWorld(scenario::Instance& instance, std::size_t index) {
  mpisim::World& world = instance.world(index);
  SectionBuilder b;
  b.raw("name=" + instance.spec().worlds[index].config.name + "\n");
  b.kv("ranks", world.config().ranks);
  b.kv("finished", world.finished());
  b.kv("failed_ranks", world.failedRanks());
  const mpisim::AdioEngine::Stats io = world.ioStats();
  b.kv("io_retries", io.retries);
  b.kv("io_failures", io.failures);
  b.kv("io_cancelled", io.cancelled);
  WordDigest times;
  for (int r = 0; r < world.config().ranks; ++r) {
    const mpisim::RankTimes& t = world.rankTimes(r);
    times.mix(t.start);
    times.mix(t.end);
    times.mix(t.compute);
    times.mix(t.comm);
    times.mix(t.sync_io);
    times.mix(t.wait_blocked);
    times.mix(t.overhead_peri);
    times.mix(t.overhead_post);
  }
  b.hex("rank_times", times.value());
  return {stateName("world." + std::to_string(index)), b.take()};
}

Section captureTracer(scenario::Instance& instance, std::size_t index) {
  const tmio::Tracer& tracer = instance.tracer(index);
  SectionBuilder b;
  b.kv("phase_records", tracer.phaseRecords().size());
  b.kv("throughput_records", tracer.throughputRecords().size());
  b.kv("limit_changes", tracer.limitChanges().size());
  WordDigest limits;
  for (const auto& change : tracer.limitChanges()) {
    limits.mix(static_cast<std::uint64_t>(change.rank));
    limits.mix(change.time);
    limits.mix(change.limit.value_or(-1.0));
  }
  b.hex("limit_digest", limits.value());
  return {stateName("tracer." + std::to_string(index)), b.take()};
}

}  // namespace

std::vector<Section> captureInstanceState(scenario::Instance& instance,
                                          const CaptureOptions& options) {
  std::vector<Section> sections;
  sections.reserve(4 + 2 * instance.worldCount());
  sections.push_back(captureSim(instance, options));
  sections.push_back(captureLink(instance, options));
  sections.push_back(captureStats(instance));
  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    sections.push_back(captureWorld(instance, w));
    sections.push_back(captureTracer(instance, w));
  }
  sections.push_back(metricsSection(instance, stateName("metrics")));
  return sections;
}

std::string joinSections(const std::vector<Section>& sections) {
  std::string out;
  for (const Section& s : sections) {
    out += "[" + s.name + "]\n";
    out += s.payload;
  }
  return out;
}

std::uint64_t runDigest(scenario::Instance& instance) {
  CaptureOptions options;
  options.include_clock = false;
  return hashName(joinSections(captureInstanceState(instance, options)));
}

void requireSectionsEqual(const std::vector<Section>& expected,
                          const std::vector<Section>& actual,
                          const std::string& origin) {
  const auto findIn = [](const std::vector<Section>& set,
                         const std::string& name) -> const Section* {
    for (const Section& s : set) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  for (const Section& want : expected) {
    const Section* got = findIn(actual, want.name);
    if (got == nullptr) {
      throw CheckpointError(
          ErrorKind::StateDivergence,
          origin + ": replay produced no section '" + want.name +
              "' (the checkpoint does not describe this scenario build)");
    }
    if (got->payload == want.payload) continue;
    // Name the first differing line -- the actionable diagnostic.
    std::size_t line = 1;
    std::size_t wp = 0;
    std::size_t gp = 0;
    while (true) {
      const std::size_t we = want.payload.find('\n', wp);
      const std::size_t ge = got->payload.find('\n', gp);
      const std::string wline =
          we == std::string::npos ? want.payload.substr(wp)
                                  : want.payload.substr(wp, we - wp);
      const std::string gline =
          ge == std::string::npos ? got->payload.substr(gp)
                                  : got->payload.substr(gp, ge - gp);
      if (wline != gline) {
        throw CheckpointError(
            ErrorKind::StateDivergence,
            origin + ": state divergence in section '" + want.name +
                "' line " + std::to_string(line) + ": checkpoint has '" +
                wline + "', replay reached '" + gline + "'");
      }
      if (we == std::string::npos || ge == std::string::npos) break;
      wp = we + 1;
      gp = ge + 1;
      ++line;
    }
    throw CheckpointError(ErrorKind::StateDivergence,
                          origin + ": state divergence in section '" +
                              want.name + "' (payload length mismatch)");
  }
  for (const Section& got : actual) {
    if (findIn(expected, got.name) == nullptr) {
      throw CheckpointError(ErrorKind::StateDivergence,
                            origin + ": replay produced extra section '" +
                                got.name + "' absent from the checkpoint");
    }
  }
}

}  // namespace iobts::ckpt
