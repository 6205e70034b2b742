#include "obs/summary.hpp"

#include <utility>

#include "ckpt/capture.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "tmio/tracer.hpp"
#include "util/file_io.hpp"
#include "util/hash.hpp"

namespace iobts::obs {
namespace {

using ckpt::hexfloat;
using ckpt::SectionBuilder;

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
        opt.scenario_text.empty() ? 0 : hashName(opt.scenario_text));
  b.hex("run_digest", ckpt::runDigest(instance));
  b.kv("elapsed", instance.elapsed());
  b.kv("worlds", static_cast<std::uint64_t>(instance.worldCount()));
  return {"meta", b.take()};
}

ckpt::Section summaryPhases(scenario::Instance& instance, std::size_t index,
                            const SummaryOptions& opt) {
  const tmio::Tracer& tracer = instance.tracer(index);
  SectionBuilder b;
  b.raw("world=" + instance.spec().worlds[index].config.name + "\n");
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
          pfs::channelName(p.channel) + " ts:" + hexfloat(p.ts) +
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
  for (std::size_t c = 0; c < pfs::kChannels; ++c) {
    const auto channel = static_cast<pfs::Channel>(c);
    const StepSeries breq = tracer.appRequiredSeries(channel);
    const std::string key = std::string("breq.") + pfs::channelName(channel);
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
  b.raw("world=" + instance.spec().worlds[index].config.name + "\n");
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
  for (std::size_t c = 0; c < pfs::kChannels; ++c) {
    const auto channel = static_cast<pfs::Channel>(c);
    const std::string p = pfs::channelName(channel);
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

}  // namespace

std::string RunSummary::render() const { return ckpt::joinSections(sections); }

std::uint64_t RunSummary::digest() const { return hashName(render()); }

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
  summary.sections.push_back(ckpt::metricsSection(instance, "metrics"));
  return summary;
}

bool writeRunSummary(const RunSummary& summary, const std::string& path) {
  return publishFile(path, summary.render());
}

}  // namespace iobts::obs
