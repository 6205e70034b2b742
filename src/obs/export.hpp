// Exporters for the observability plane.
//
// Chrome trace-event JSON (the "JSON Array Format" that chrome://tracing
// and Perfetto load) is derived from a binary recording, never written
// live: chromeJsonFromBinaryTrace (obs/profile.hpp) renders a decoded
// binlog through the helpers below. One "process" per simulated subsystem,
// virtual time mapped to microseconds. Event kinds map as
//
//   Phase::Complete  -> ph "X" (ts + dur)
//   Phase::Instant   -> ph "i" (thread-scoped)
//   Phase::Counter   -> ph "C"
//   Phase::FlowStart -> ph "s" (journey id in "id", hex string)
//   Phase::FlowStep  -> ph "t"
//   Phase::FlowEnd   -> ph "f" with "bp":"e" (bind to enclosing slice)
//
// plus ph "M" metadata records for the recorded process/thread names.
// Serialization goes through util Json (std::map-backed objects), so key
// order -- and with wall capture off, the whole byte stream -- is
// deterministic across identical runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace iobts::obs {

/// The "clock" note the Chrome document carries in "otherData".
inline constexpr const char* kTraceClockNote =
    "virtual (1 us trace time = 1 us simulated)";

/// Serialize one event to its Chrome trace-event object.
Json traceEventJson(const TraceEvent& event);

/// The ph "M" metadata records for the given process/thread names, in
/// deterministic (sorted) order.
JsonArray traceMetadataEvents(
    const std::map<std::uint32_t, std::string>& process_names,
    const std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>&
        thread_names);

/// Convenience: write metrics (pretty JSON for ".json" paths, text table
/// otherwise). Returns false on I/O failure.
bool writeMetrics(const MetricsRegistry& registry, const std::string& path);

}  // namespace iobts::obs
