#include "obs/export.hpp"

#include <cstdio>

#include "util/file_io.hpp"

namespace iobts::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;

/// Journey ids are raw uint64 values (rank/request bit-packs) that can
/// exceed 2^53; render them as hex strings so JSON doubles never round
/// them. Chrome's flow-event "id" field accepts strings.
std::string journeyIdString(std::uint64_t journey) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(journey));
  return std::string(buf);
}

}  // namespace

Json traceEventJson(const TraceEvent& ev) {
  JsonObject o;
  o["name"] = Json(ev.name);
  o["cat"] = Json(ev.category);
  o["pid"] = Json(ev.pid);
  o["tid"] = Json(ev.tid);
  o["ts"] = Json(ev.ts * kMicrosPerSecond);
  switch (ev.phase) {
    case Phase::Complete: {
      o["ph"] = Json("X");
      o["dur"] = Json(ev.dur * kMicrosPerSecond);
      JsonObject args;
      args["value"] = Json(ev.value);
      if (ev.wall_ns != 0) args["wall_ns"] = Json(ev.wall_ns);
      o["args"] = Json(std::move(args));
      break;
    }
    case Phase::Instant: {
      o["ph"] = Json("i");
      o["s"] = Json("t");  // thread-scoped instant
      o["args"] = Json(JsonObject{{"value", Json(ev.value)}});
      break;
    }
    case Phase::Counter: {
      o["ph"] = Json("C");
      o["args"] = Json(JsonObject{{"value", Json(ev.value)}});
      break;
    }
    case Phase::FlowStart: {
      o["ph"] = Json("s");
      o["id"] = Json(journeyIdString(ev.flow));
      break;
    }
    case Phase::FlowStep: {
      o["ph"] = Json("t");
      o["id"] = Json(journeyIdString(ev.flow));
      break;
    }
    case Phase::FlowEnd: {
      o["ph"] = Json("f");
      o["bp"] = Json("e");  // bind to the enclosing slice, not the next one
      o["id"] = Json(journeyIdString(ev.flow));
      break;
    }
  }
  return Json(std::move(o));
}

JsonArray traceMetadataEvents(
    const std::map<std::uint32_t, std::string>& process_names,
    const std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>&
        thread_names) {
  JsonArray events;
  for (const auto& [pid, name] : process_names) {
    JsonObject o;
    o["name"] = Json("process_name");
    o["ph"] = Json("M");
    o["pid"] = Json(pid);
    o["args"] = Json(JsonObject{{"name", Json(name)}});
    events.push_back(Json(std::move(o)));
  }
  for (const auto& [key, name] : thread_names) {
    JsonObject o;
    o["name"] = Json("thread_name");
    o["ph"] = Json("M");
    o["pid"] = Json(key.first);
    o["tid"] = Json(key.second);
    o["args"] = Json(JsonObject{{"name", Json(name)}});
    events.push_back(Json(std::move(o)));
  }
  return events;
}

bool writeMetrics(const MetricsRegistry& registry, const std::string& path) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return publishFile(path, json ? registry.toJson().pretty() + "\n"
                                : registry.dumpText());
}

}  // namespace iobts::obs
