#include "ckpt/capture.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "ckpt/snapshot.hpp"
#include "mpisim/world.hpp"
#include "obs/metrics.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/instance.hpp"
#include "tmio/tracer.hpp"

namespace iobts::ckpt {
namespace {

/// Canonical key=value emitter: hexfloat doubles, zero-padded hex digests.
class SectionBuilder {
 public:
  void kv(const char* key, std::uint64_t value) {
    text_ += key;
    text_ += '=';
    text_ += std::to_string(value);
    text_ += '\n';
  }
  void kv(const char* key, int value) {
    text_ += key;
    text_ += '=';
    text_ += std::to_string(value);
    text_ += '\n';
  }
  void kv(const char* key, bool value) {
    text_ += key;
    text_ += value ? "=1\n" : "=0\n";
  }
  void kv(const char* key, double value) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", value);
    text_ += key;
    text_ += '=';
    text_ += buf;
    text_ += '\n';
  }
  void hex(const char* key, std::uint64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
    text_ += key;
    text_ += '=';
    text_ += buf;
    text_ += '\n';
  }
  void raw(const std::string& blob) { text_ += blob; }

  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

/// FNV-1a accumulator over raw 64-bit words (for large per-rank /
/// per-stream vectors where listing every element would bloat the file).
class WordDigest {
 public:
  void mix(std::uint64_t bits) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double value) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Section name for one captured subsystem ("state.<leaf>").
std::string stateName(const std::string& leaf) { return kStatePrefix + leaf; }

constexpr pfs::Channel kChannelList[] = {pfs::Channel::Read,
                                         pfs::Channel::Write};
constexpr const char* kChannelName[] = {"read", "write"};

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
  for (int c = 0; c < 2; ++c) {
    const pfs::Channel channel = kChannelList[c];
    const std::string p = kChannelName[c];
    const auto key = [&p](const char* suffix) { return p + "." + suffix; };
    b.kv(key("bytes_moved").c_str(), link.bytesMoved(channel));
    b.kv(key("active_transfers").c_str(), link.activeTransfers(channel));
    b.kv(key("effective_capacity").c_str(), link.effectiveCapacity(channel));
    b.kv(key("contended").c_str(), link.contended(channel));
    if (opt.include_clock) {
      // The lazy-settle bound is clock-like: a checkpointing driver's final
      // empty runUntil() window cannot change it, but mid-run it is part of
      // the exact state a replay must land on.
      b.kv(key("next_interesting").c_str(), link.nextInterestingTime(channel));
    }
    const pfs::SharedLink::ResolveStats rs = link.resolveStats(channel);
    b.kv(key("resolves_executed").c_str(), rs.executed);
    b.kv(key("resolves_lazy_skipped").c_str(), rs.lazy_skipped);
    b.kv(key("full_solves").c_str(), rs.full_solves);
    b.kv(key("faulted_transfers").c_str(), rs.faulted_transfers);
    b.kv(key("capacity_edges").c_str(), rs.capacity_edges);
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
  b.raw("name=" + instance.spec().worlds[index].name + "\n");
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

Section captureMetrics(scenario::Instance& instance) {
  obs::MetricsRegistry registry;
  instance.sim().exportMetrics(registry);
  instance.link().exportMetrics(registry);
  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    instance.world(w).exportMetrics(registry);
  }
  SectionBuilder b;
  b.raw(registry.dumpText());
  return {stateName("metrics"), b.take()};
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
  sections.push_back(captureMetrics(instance));
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
  return fnv1a(joinSections(captureInstanceState(instance, options)));
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
