// Offline analysis of binary flight-recorder traces.
//
// tools/iobts_profile is a thin CLI over these builders; they live in the
// library so the reports are golden-pinnable from unit tests (each builder
// returns the exact bytes the tool prints). All reports are deterministic:
// they are pure functions of the decoded trace, with fixed-precision
// formatting and stable (virtual-time, then recording-order) sorts.
//
//   * profileSummaryText    -- header + top spans by inclusive virtual time.
//   * criticalPathText      -- per-journey critical-path split
//                              (queue | pace | link | fault), the paper's
//                              "where does an async request actually wait"
//                              question, reconstructed from flow events.
//   * linkTimelineCsv       -- per-channel bandwidth timeline binned from
//                              transfer spans (rate = bytes / span length,
//                              accumulated over each bin it overlaps).
//   * breqTableText/Csv     -- the application-level required-bandwidth
//                              step series (Eq. 3) recorded by the tmio
//                              bridge, i.e. the fig10/fig13-style B_req
//                              table, with the per-channel maximum (the
//                              minimal zero-waiting bandwidth, Sec. IV-C).
//   * chromeJsonFromBinaryTrace -- lossless conversion to Chrome trace
//                              JSON: the only way a run's events become
//                              Chrome JSON.
#pragma once

#include <cstddef>
#include <string>

#include "obs/binlog.hpp"

namespace iobts::obs {

/// Header (event/string/drop accounting, virtual span) plus the top
/// `top_spans` (category, name) rows ranked by total inclusive virtual
/// time, plus instant-event counts.
std::string profileSummaryText(const BinaryTrace& trace,
                               std::size_t top_spans = 20);

/// Per-journey critical-path split: flow chains grouped by journey id,
/// bound to the enclosing spans on their tracks, classified into
/// queue / pace / link / fault time. Top `top_journeys` rows by end-to-end
/// duration plus the all-journeys aggregate.
std::string criticalPathText(const BinaryTrace& trace,
                             std::size_t top_journeys = 20);

/// CSV: channel,t_seconds,bytes_per_second -- the summed rate of live
/// transfers per channel (read / write / faulted) on a `bins`-point grid
/// spanning the trace's transfer activity.
std::string linkTimelineCsv(const BinaryTrace& trace, std::size_t bins = 64);

/// Text table of the application-level B_req step series per channel, with
/// the per-channel maximum (minimal required bandwidth). Empty series are
/// reported as such (the run predates the tmio bridge annotations).
std::string breqTableText(const BinaryTrace& trace);

/// CSV: channel,t_seconds,required_bytes_per_second (one row per step of
/// the B_req series).
std::string breqTableCsv(const BinaryTrace& trace);

/// Render the decoded trace as a Chrome trace JSON document: events in
/// recording order joined by ",\n", then the ph "M" track-name records,
/// then the otherData totals from the footer. The bytes are pinned by
/// tests.
std::string chromeJsonFromBinaryTrace(const BinaryTrace& trace);

}  // namespace iobts::obs
