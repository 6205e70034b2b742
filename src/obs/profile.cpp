#include "obs/profile.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "util/string_util.hpp"

namespace iobts::obs {
namespace {

/// printf into a growing string (all report formatting funnels through
/// here so precision is uniform and golden-pinnable).
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n),
                                      sizeof(buf) - 1));
}

void appendDuration(std::string& out, double seconds) {
  if (seconds >= 1.0) {
    appendf(out, "%10.3f s ", seconds);
  } else if (seconds >= 1e-3) {
    appendf(out, "%10.3f ms", seconds * 1e3);
  } else {
    appendf(out, "%10.3f us", seconds * 1e6);
  }
}

std::string journeyIdString(std::uint64_t journey) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(journey));
  return std::string(buf);
}

}  // namespace

std::string profileSummaryText(const BinaryTrace& trace,
                               std::size_t top_spans) {
  struct SpanAgg {
    std::uint64_t count = 0;
    double total = 0.0;  // seconds
    double max = 0.0;
    double wall_ns = 0.0;
  };
  std::map<std::string, SpanAgg> spans;
  std::map<std::string, std::uint64_t> instants;
  double t_min = 0.0, t_max = 0.0;
  bool saw_span = false;
  for (const BinEvent& e : trace.events) {
    const std::string key =
        trace.strings[e.category] + "/" + trace.strings[e.name];
    if (e.phase == Phase::Complete) {
      SpanAgg& agg = spans[key];
      ++agg.count;
      agg.total += e.dur;
      agg.max = std::max(agg.max, e.dur);
      agg.wall_ns += static_cast<double>(e.wall_ns);
      if (!saw_span) {
        t_min = e.ts;
        t_max = e.ts + e.dur;
        saw_span = true;
      } else {
        t_min = std::min(t_min, e.ts);
        t_max = std::max(t_max, e.ts + e.dur);
      }
    } else if (e.phase == Phase::Instant) {
      ++instants[key];
    }
  }

  std::string out;
  appendf(out, "%llu events (recorded %llu, dropped %llu, streamed %llu), "
               "%llu interned strings",
          static_cast<unsigned long long>(trace.events.size()),
          static_cast<unsigned long long>(trace.totals.recorded),
          static_cast<unsigned long long>(trace.totals.dropped),
          static_cast<unsigned long long>(trace.totals.streamed),
          static_cast<unsigned long long>(trace.strings.size()));
  if (saw_span) {
    appendf(out, ", virtual span [%.3f s, %.3f s]", t_min, t_max);
  }
  out += "\n\n";

  std::vector<std::pair<std::string, SpanAgg>> ranked(spans.begin(),
                                                      spans.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.total > b.second.total;
                   });
  out += "Top spans by inclusive virtual time:\n";
  appendf(out, "  %-28s %10s %12s %12s %12s\n", "span", "count", "total",
          "mean", "max");
  for (std::size_t i = 0; i < ranked.size() && i < top_spans; ++i) {
    const auto& [name, agg] = ranked[i];
    appendf(out, "  %-28s %10llu ", name.c_str(),
            static_cast<unsigned long long>(agg.count));
    appendDuration(out, agg.total);
    out += ' ';
    appendDuration(out, agg.total / static_cast<double>(agg.count));
    out += ' ';
    appendDuration(out, agg.max);
    if (agg.wall_ns > 0.0) {
      appendf(out, "  (wall %.3f ms)", agg.wall_ns / 1e6);
    }
    out += '\n';
  }
  if (ranked.size() > top_spans) {
    appendf(out, "  ... %llu more\n",
            static_cast<unsigned long long>(ranked.size() - top_spans));
  }

  if (!instants.empty()) {
    out += "\nInstant events:\n";
    for (const auto& [name, count] : instants) {
      appendf(out, "  %-28s %10llu\n", name.c_str(),
              static_cast<unsigned long long>(count));
    }
  }
  return out;
}

std::string criticalPathText(const BinaryTrace& trace,
                             std::size_t top_journeys) {
  struct Span {
    double ts = 0.0;
    double dur = 0.0;
    std::uint32_t name = 0;
  };
  struct Journey {
    double t_min = 0.0, t_max = 0.0;
    bool seen = false;
    double queue = 0.0, pace = 0.0, link = 0.0, fault = 0.0, total = 0.0;
    std::uint64_t subrequests = 0;
    std::uint64_t flow_events = 0;
    bool failed = false;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Span>> tracks;
  std::map<std::uint64_t,
           std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                                 double>>>
      flows;
  for (const BinEvent& e : trace.events) {
    const std::pair<std::uint32_t, std::uint32_t> track{e.pid, e.tid};
    if (e.phase == Phase::Complete) {
      tracks[track].push_back(Span{e.ts, e.dur, e.name});
    } else if (e.phase == Phase::FlowStart || e.phase == Phase::FlowStep ||
               e.phase == Phase::FlowEnd) {
      flows[e.flow].push_back({track, e.ts});
    }
  }
  std::string out;
  if (flows.empty()) {
    out += "no flow events -- this trace predates request journeys (re-run "
           "the instrumented workload)\n";
    return out;
  }

  std::vector<std::pair<std::uint64_t, Journey>> journeys;
  for (const auto& [id, chain] : flows) {
    Journey j;
    j.flow_events = chain.size();
    std::vector<const Span*> bound;
    for (const auto& [track, ts] : chain) {
      if (!j.seen) {
        j.t_min = j.t_max = ts;
        j.seen = true;
      } else {
        j.t_min = std::min(j.t_min, ts);
        j.t_max = std::max(j.t_max, ts);
      }
      const auto it = tracks.find(track);
      if (it == tracks.end()) continue;
      for (const Span& s : it->second) {
        if (ts < s.ts || ts > s.ts + s.dur) continue;
        if (std::find(bound.begin(), bound.end(), &s) != bound.end()) {
          continue;
        }
        bound.push_back(&s);
      }
    }
    for (const Span* s : bound) {
      j.t_max = std::max(j.t_max, s->ts + s->dur);
      const std::string& name = trace.strings[s->name];
      if (name == "adio.queue") {
        j.queue += s->dur;
      } else if (name == "adio.pace") {
        j.pace += s->dur;
      } else if (name == "transfer.read" || name == "transfer.write") {
        j.link += s->dur;
      } else if (name == "transfer.faulted" || name == "adio.backoff") {
        j.fault += s->dur;
      } else if (name == "adio.subreq") {
        ++j.subrequests;
      } else if (startsWith(name, "adio.request.") ||
                 startsWith(name, "rtio.op")) {
        j.total += s->dur;
        j.failed |=
            name == "adio.request.failed" || name == "rtio.op.failed";
      }
    }
    if (j.total == 0.0) j.total = j.t_max - j.t_min;
    journeys.emplace_back(id, j);
  }

  std::stable_sort(journeys.begin(), journeys.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.total > b.second.total;
                   });

  appendf(out, "%llu journeys; critical-path split per journey "
               "(queue | pace | link | fault):\n",
          static_cast<unsigned long long>(journeys.size()));
  appendf(out, "  %-20s %12s %12s %12s %12s %12s %7s\n", "journey", "total",
          "queue", "pace", "link", "fault", "subreq");
  double agg_total = 0, agg_queue = 0, agg_pace = 0, agg_link = 0,
         agg_fault = 0;
  for (std::size_t i = 0; i < journeys.size(); ++i) {
    const auto& [id, j] = journeys[i];
    agg_total += j.total;
    agg_queue += j.queue;
    agg_pace += j.pace;
    agg_link += j.link;
    agg_fault += j.fault;
    if (i >= top_journeys) continue;
    const std::string label = journeyIdString(id) + (j.failed ? " !" : "");
    appendf(out, "  %-20s ", label.c_str());
    appendDuration(out, j.total);
    out += ' ';
    appendDuration(out, j.queue);
    out += ' ';
    appendDuration(out, j.pace);
    out += ' ';
    appendDuration(out, j.link);
    out += ' ';
    appendDuration(out, j.fault);
    appendf(out, " %7llu\n", static_cast<unsigned long long>(j.subrequests));
  }
  if (journeys.size() > top_journeys) {
    appendf(out, "  ... %llu more\n",
            static_cast<unsigned long long>(journeys.size() - top_journeys));
  }
  appendf(out, "\n  %-20s ", "all journeys");
  appendDuration(out, agg_total);
  out += ' ';
  appendDuration(out, agg_queue);
  out += ' ';
  appendDuration(out, agg_pace);
  out += ' ';
  appendDuration(out, agg_link);
  out += ' ';
  appendDuration(out, agg_fault);
  out += "\n  (pace = bandwidth limitation at work; link = fair-share "
         "transfer time; fault = faulted settles + retry backoffs)\n";
  return out;
}

std::string linkTimelineCsv(const BinaryTrace& trace, std::size_t bins) {
  struct Transfer {
    double ts = 0.0;
    double dur = 0.0;
    double bytes = 0.0;
    int channel = 0;  // 0 read, 1 write, 2 faulted
  };
  static constexpr const char* kChannelName[] = {"read", "write", "faulted"};
  std::vector<Transfer> transfers;
  double t_min = 0.0, t_max = 0.0;
  bool seen = false;
  for (const BinEvent& e : trace.events) {
    if (e.phase != Phase::Complete) continue;
    const std::string& name = trace.strings[e.name];
    int channel;
    if (name == "transfer.read") {
      channel = 0;
    } else if (name == "transfer.write") {
      channel = 1;
    } else if (name == "transfer.faulted") {
      channel = 2;
    } else {
      continue;
    }
    transfers.push_back(Transfer{e.ts, e.dur, e.value, channel});
    if (!seen) {
      t_min = e.ts;
      t_max = e.ts + e.dur;
      seen = true;
    } else {
      t_min = std::min(t_min, e.ts);
      t_max = std::max(t_max, e.ts + e.dur);
    }
  }
  std::string out = "channel,t_seconds,bytes_per_second\n";
  if (!seen || bins == 0 || t_max <= t_min) return out;
  // Each transfer contributes its mean rate (bytes / span length) to every
  // bin it overlaps, weighted by the overlap fraction of the bin -- the
  // binned twin of the link's allocated-rate step series.
  const double width = (t_max - t_min) / static_cast<double>(bins);
  std::vector<std::vector<double>> rate(3,
                                        std::vector<double>(bins, 0.0));
  for (const Transfer& t : transfers) {
    const double rate_bps = t.dur > 0.0 ? t.bytes / t.dur : 0.0;
    if (rate_bps <= 0.0) continue;
    const double start = t.ts;
    const double end = t.ts + t.dur;
    for (std::size_t b = 0; b < bins; ++b) {
      const double bin_lo = t_min + width * static_cast<double>(b);
      const double bin_hi = bin_lo + width;
      const double lo = std::max(start, bin_lo);
      const double hi = std::min(end, bin_hi);
      if (hi <= lo) continue;
      rate[static_cast<std::size_t>(t.channel)][b] +=
          rate_bps * (hi - lo) / width;
    }
  }
  for (int c = 0; c < 3; ++c) {
    bool any = false;
    for (const double r : rate[static_cast<std::size_t>(c)]) {
      if (r != 0.0) any = true;
    }
    if (!any) continue;
    for (std::size_t b = 0; b < bins; ++b) {
      appendf(out, "%s,%.9f,%.6f\n", kChannelName[c],
              t_min + width * static_cast<double>(b),
              rate[static_cast<std::size_t>(c)][b]);
    }
  }
  return out;
}

namespace {

/// Collect the (t, B_req) counter series per channel name emitted by the
/// tmio bridge ("tmio.app.breq.read" / ".write"), in recording order.
std::map<std::string, std::vector<std::pair<double, double>>> breqSeries(
    const BinaryTrace& trace) {
  std::map<std::string, std::vector<std::pair<double, double>>> series;
  for (const BinEvent& e : trace.events) {
    if (e.phase != Phase::Counter) continue;
    const std::string& name = trace.strings[e.name];
    if (!startsWith(name, "tmio.app.breq.")) continue;
    series[name.substr(std::strlen("tmio.app.breq."))].push_back(
        {e.ts, e.value});
  }
  return series;
}

}  // namespace

std::string breqTableText(const BinaryTrace& trace) {
  const auto series = breqSeries(trace);
  std::string out;
  out += "Application-level required bandwidth B_req (Eq. 3 step series):\n";
  if (series.empty()) {
    out += "  no tmio.app.breq.* counters -- the run predates the tmio "
           "bridge annotations\n";
    return out;
  }
  for (const auto& [channel, points] : series) {
    double max_breq = 0.0;
    for (const auto& [t, v] : points) max_breq = std::max(max_breq, v);
    appendf(out, "\n  channel %s: %llu steps, minimal required bandwidth "
                 "%.3f MB/s\n",
            channel.c_str(), static_cast<unsigned long long>(points.size()),
            max_breq / 1e6);
    appendf(out, "  %14s %18s\n", "t", "B_req");
    for (const auto& [t, v] : points) {
      appendf(out, "  %12.6f s %12.3f MB/s\n", t, v / 1e6);
    }
  }
  return out;
}

std::string breqTableCsv(const BinaryTrace& trace) {
  const auto series = breqSeries(trace);
  std::string out = "channel,t_seconds,required_bytes_per_second\n";
  for (const auto& [channel, points] : series) {
    for (const auto& [t, v] : points) {
      appendf(out, "%s,%.9f,%.6f\n", channel.c_str(), t, v);
    }
  }
  return out;
}

std::string chromeJsonFromBinaryTrace(const BinaryTrace& trace) {
  // Header, events separated by ",\n", metadata records, then a footer
  // with the sink totals (preserved in the binlog footer).
  std::string out = "{\"traceEvents\":[\n";
  bool any_event_written = false;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    if (any_event_written) out += ",\n";
    out += traceEventJson(trace.event(i)).dump();
    any_event_written = true;
  }
  for (const Json& meta :
       traceMetadataEvents(trace.process_names, trace.thread_names)) {
    if (any_event_written) out += ",\n";
    out += meta.dump();
    any_event_written = true;
  }
  const JsonObject other{
      {"recorded", Json(trace.totals.recorded)},
      {"dropped", Json(trace.totals.dropped)},
      {"streamed", Json(trace.totals.streamed)},
      {"clock", Json(kTraceClockNote)},
  };
  out += "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":";
  out += Json(other).dump();
  out += "}\n";
  return out;
}

}  // namespace iobts::obs
