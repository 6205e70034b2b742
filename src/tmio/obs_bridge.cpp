#include "tmio/obs_bridge.hpp"

#include <string>
#include <vector>

namespace iobts::tmio {

namespace {

/// Decade buckets spanning the bandwidths the paper cares about
/// (MB/s .. TB/s), in bytes/s.
const std::vector<double>& bandwidthBounds() {
  static const std::vector<double> bounds{1e6, 1e7, 1e8, 1e9,
                                          1e10, 1e11, 1e12};
  return bounds;
}

/// Phase windows range from sub-millisecond verify phases to hundreds of
/// seconds of compute: decade buckets from 1 us to 10 s.
const std::vector<double>& secondsBounds() {
  static const std::vector<double> bounds{1e-6, 1e-5, 1e-4, 1e-3,
                                          1e-2, 1e-1, 1.0,  10.0};
  return bounds;
}

}  // namespace

void exportTracerMetrics(const Tracer& tracer,
                         obs::MetricsRegistry& registry) {
  registry.addCounter("tmio.phases", tracer.phaseRecords().size());
  registry.addCounter("tmio.throughput_windows",
                      tracer.throughputRecords().size());
  registry.addCounter("tmio.limit_changes", tracer.limitChanges().size());

  double last_required[pfs::kChannels] = {};
  bool saw[pfs::kChannels] = {};
  for (const PhaseRecord& p : tracer.phaseRecords()) {
    const int c = static_cast<int>(p.channel);
    const std::string prefix =
        std::string("tmio.") + pfs::channelName(p.channel);
    registry.addCounter(prefix + ".phases", 1);
    registry.observe(prefix + ".required_bw", p.required, bandwidthBounds());
    registry.observe(prefix + ".phase_seconds", p.te - p.ts, secondsBounds());
    last_required[c] = p.required;
    saw[c] = true;
  }
  for (int c = 0; c < static_cast<int>(pfs::kChannels); ++c) {
    if (!saw[c]) continue;
    registry.setGauge(std::string("tmio.") +
                          pfs::channelName(static_cast<pfs::Channel>(c)) +
                          ".required_bw.last",
                      last_required[c]);
  }
  registry.setGauge("tmio.min_required_bw",
                    tracer.minimalRequiredBandwidth());
}

std::size_t annotateAppRequired(const Tracer& tracer, obs::TraceSink& sink) {
  std::size_t samples = 0;
  for (int c = 0; c < static_cast<int>(pfs::kChannels); ++c) {
    const pfs::Channel channel = static_cast<pfs::Channel>(c);
    const char* const name = channel == pfs::Channel::Read
                                 ? "tmio.app.breq.read"
                                 : "tmio.app.breq.write";
    // Bind the by-value series before iterating: points() returns a
    // reference into it, which would dangle on a temporary.
    const StepSeries series = tracer.appRequiredSeries(channel);
    for (const auto& [t, v] : series.points()) {
      sink.counter("tmio", name, obs::track::kTmio,
                   static_cast<std::uint32_t>(c), t, v);
      ++samples;
    }
  }
  return samples;
}

}  // namespace iobts::tmio
