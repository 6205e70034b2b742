#include "obs/summary.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "ckpt/capture.hpp"
#include "obs/metrics.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "tmio/tracer.hpp"

namespace iobts::obs {
namespace {

/// Canonical key=value emitter (the checkpoint plane's discipline: doubles
/// as hexfloats, digests as zero-padded hex).
class SectionBuilder {
 public:
  void kv(const std::string& key, std::uint64_t value) {
    text_ += key;
    text_ += '=';
    text_ += std::to_string(value);
    text_ += '\n';
  }
  void kv(const std::string& key, int value) {
    text_ += key;
    text_ += '=';
    text_ += std::to_string(value);
    text_ += '\n';
  }
  void kv(const std::string& key, bool value) {
    text_ += key;
    text_ += value ? "=1\n" : "=0\n";
  }
  void kv(const std::string& key, double value) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", value);
    text_ += key;
    text_ += '=';
    text_ += buf;
    text_ += '\n';
  }
  void hex(const std::string& key, std::uint64_t value) {
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

/// FNV-1a over raw 64-bit words -- full tables are always digested even
/// when only a prefix is rendered, so truncation cannot hide a divergence.
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

constexpr pfs::Channel kChannelList[] = {pfs::Channel::Read,
                                         pfs::Channel::Write};
constexpr const char* kChannelName[] = {"read", "write"};

std::string hexfloat(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return std::string(buf);
}

void emitTimeline(SectionBuilder& b, const std::string& key,
                  const StepSeries& series, double t0, double t1,
                  std::size_t points) {
  b.kv(key + ".steps", static_cast<std::uint64_t>(series.size()));
  b.kv(key + ".max", series.maxValue());
  if (series.empty() || points == 0 || t1 <= t0) return;
  for (const auto& [t, v] : series.resample(t0, t1, points)) {
    b.raw(key + ".at=" + hexfloat(t) + " " + hexfloat(v) + "\n");
  }
}

ckpt::Section summaryMeta(scenario::Instance& instance,
                          const SummaryOptions& opt) {
  SectionBuilder b;
  b.raw("scenario=" + opt.scenario_name + "\n");
  b.hex("scenario_digest",
        opt.scenario_text.empty() ? 0 : ckpt::fnv1a(opt.scenario_text));
  b.hex("run_digest", ckpt::runDigest(instance));
  b.kv("elapsed", instance.elapsed());
  b.kv("worlds", static_cast<std::uint64_t>(instance.worldCount()));
  return {"meta", b.take()};
}

ckpt::Section summaryPhases(scenario::Instance& instance, std::size_t index,
                            const SummaryOptions& opt) {
  const tmio::Tracer& tracer = instance.tracer(index);
  SectionBuilder b;
  b.raw("world=" + instance.spec().worlds[index].name + "\n");
  const auto& phases = tracer.phaseRecords();
  b.kv("records", static_cast<std::uint64_t>(phases.size()));
  WordDigest rows;
  std::size_t rendered = 0;
  for (const tmio::PhaseRecord& p : phases) {
    rows.mix(static_cast<std::uint64_t>(p.rank));
    rows.mix(static_cast<std::uint64_t>(p.phase));
    rows.mix(static_cast<std::uint64_t>(p.channel));
    rows.mix(p.ts);
    rows.mix(p.te);
    rows.mix(static_cast<std::uint64_t>(p.bytes));
    rows.mix(static_cast<std::uint64_t>(p.requests));
    rows.mix(p.required);
    rows.mix(p.applied_limit.value_or(-1.0));
    if (rendered >= opt.max_phase_rows) continue;
    ++rendered;
    b.raw("row=rank:" + std::to_string(p.rank) +
          " phase:" + std::to_string(p.phase) + " ch:" +
          kChannelName[static_cast<int>(p.channel)] + " ts:" + hexfloat(p.ts) +
          " te:" + hexfloat(p.te) +
          " bytes:" + std::to_string(static_cast<std::uint64_t>(p.bytes)) +
          " requests:" + std::to_string(p.requests) +
          " required:" + hexfloat(p.required) + " limit:" +
          (p.applied_limit ? hexfloat(*p.applied_limit) : "none") + "\n");
  }
  if (rendered < phases.size()) {
    b.kv("rows_elided", static_cast<std::uint64_t>(phases.size() - rendered));
  }
  b.hex("rows_digest", rows.value());
  // Application-level view (Eq. 3): the step count and maximum per channel,
  // plus the overall minimal zero-waiting bandwidth (Sec. IV-C).
  for (int c = 0; c < 2; ++c) {
    const StepSeries breq = tracer.appRequiredSeries(kChannelList[c]);
    const std::string key = std::string("breq.") + kChannelName[c];
    b.kv(key + ".steps", static_cast<std::uint64_t>(breq.size()));
    b.kv(key + ".max", breq.maxValue());
  }
  b.kv("min_required_bandwidth", tracer.minimalRequiredBandwidth());
  return {"phases." + std::to_string(index), b.take()};
}

ckpt::Section summaryStalls(scenario::Instance& instance, std::size_t index) {
  const tmio::Tracer& tracer = instance.tracer(index);
  mpisim::World& world = instance.world(index);
  tmio::AsyncTimeSplit total;
  for (int r = 0; r < world.config().ranks; ++r) {
    const tmio::AsyncTimeSplit& s = tracer.rankSplit(r);
    total.write_exploit += s.write_exploit;
    total.read_exploit += s.read_exploit;
    total.write_lost += s.write_lost;
    total.read_lost += s.read_lost;
    total.sync_write += s.sync_write;
    total.sync_read += s.sync_read;
  }
  SectionBuilder b;
  b.raw("world=" + instance.spec().worlds[index].name + "\n");
  b.kv("ranks", world.config().ranks);
  b.kv("write_exploit", total.write_exploit);
  b.kv("read_exploit", total.read_exploit);
  b.kv("write_lost", total.write_lost);
  b.kv("read_lost", total.read_lost);
  b.kv("sync_write", total.sync_write);
  b.kv("sync_read", total.sync_read);
  // The stall attribution headline: virtual rank-seconds of I/O hidden
  // behind compute/comm vs. visible to the application (Figs. 7/11).
  b.kv("compute_overlapped", total.write_exploit + total.read_exploit);
  b.kv("io_blocked", total.write_lost + total.read_lost + total.sync_write +
                         total.sync_read);
  return {"stalls." + std::to_string(index), b.take()};
}

ckpt::Section summaryLink(scenario::Instance& instance,
                          const SummaryOptions& opt) {
  SectionBuilder b;
  pfs::SharedLink& link = instance.link();
  const double t1 = instance.elapsed();
  for (int c = 0; c < 2; ++c) {
    const pfs::Channel channel = kChannelList[c];
    const std::string p = kChannelName[c];
    b.kv(p + ".capacity", link.capacity(channel));
    b.kv(p + ".effective_capacity", link.effectiveCapacity(channel));
    b.kv(p + ".bytes_moved",
         static_cast<std::uint64_t>(link.bytesMoved(channel)));
    b.kv(p + ".active_transfers",
         static_cast<std::uint64_t>(link.activeTransfers(channel)));
    b.kv(p + ".contended", link.contended(channel));
    const pfs::SharedLink::ResolveStats rs = link.resolveStats(channel);
    b.kv(p + ".resolves_executed", rs.executed);
    b.kv(p + ".resolves_lazy_skipped", rs.lazy_skipped);
    b.kv(p + ".full_solves", rs.full_solves);
    b.kv(p + ".faulted_transfers", rs.faulted_transfers);
    b.kv(p + ".capacity_edges", rs.capacity_edges);
    emitTimeline(b, p + ".utilization", link.totalRateSeries(channel), 0.0,
                 t1, opt.timeline_points);
    emitTimeline(b, p + ".backlog", link.activeTransferSeries(channel), 0.0,
                 t1, opt.timeline_points);
  }
  b.kv("streams", static_cast<std::uint64_t>(link.streamCount()));
  return {"link", b.take()};
}

ckpt::Section summaryMetrics(scenario::Instance& instance) {
  // Same registry population as the end-of-run state capture: sim + link +
  // worlds. Trace sinks are deliberately not exported here, so the summary
  // is byte-identical whether the run traced to JSON, to the binary
  // recorder, or not at all.
  MetricsRegistry registry;
  instance.sim().exportMetrics(registry);
  instance.link().exportMetrics(registry);
  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    instance.world(w).exportMetrics(registry);
  }
  SectionBuilder b;
  b.raw(registry.dumpText());
  return {"metrics", b.take()};
}

}  // namespace

std::string RunSummary::render() const { return ckpt::joinSections(sections); }

std::uint64_t RunSummary::digest() const { return ckpt::fnv1a(render()); }

RunSummary summarizeInstance(scenario::Instance& instance,
                             const SummaryOptions& options) {
  RunSummary summary;
  summary.sections.reserve(3 + 2 * instance.worldCount());
  summary.sections.push_back(summaryMeta(instance, options));
  for (std::size_t w = 0; w < instance.worldCount(); ++w) {
    summary.sections.push_back(summaryPhases(instance, w, options));
    summary.sections.push_back(summaryStalls(instance, w));
  }
  summary.sections.push_back(summaryLink(instance, options));
  summary.sections.push_back(summaryMetrics(instance));
  return summary;
}

bool writeRunSummary(const RunSummary& summary, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << summary.render();
    out.flush();
    if (!out) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace iobts::obs
