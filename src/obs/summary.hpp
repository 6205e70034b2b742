// Deterministic run-summary artifacts.
//
// A RunSummary is the flight recorder's second output next to the event
// trace: a canonical, digestable description of *what the run did* --
// scenario identity, end-of-run state digest, per-phase required-bandwidth
// records (Eq. 1), the application-level B_req step series and its maximum
// (the minimal zero-waiting bandwidth, Sec. IV-C), per-link utilization and
// backlog timelines, stall attribution (I/O time hidden behind compute vs.
// blocked in waits), and the full metrics export.
//
// Summaries reuse the checkpoint plane's section discipline
// (ckpt::Section + canonical key=value text, doubles as hexfloats), so two
// runs of the same scenario render byte-identical summaries on any host and
// the digest is a one-word equality gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/format.hpp"

namespace iobts::scenario {
class Instance;
}  // namespace iobts::scenario

namespace iobts::obs {

struct SummaryOptions {
  /// Scenario identity recorded in the meta section. `scenario_text` is
  /// digested (FNV-1a), never stored, so summaries stay small and two runs
  /// of byte-identical scenario sources carry the same digest.
  std::string scenario_name;
  std::string scenario_text;
  /// Grid size of the per-link utilization/backlog timelines.
  std::size_t timeline_points = 32;
  /// Rows of the per-phase B_req table rendered verbatim; the full table is
  /// always digested, so truncation never hides a divergence.
  std::size_t max_phase_rows = 64;
};

/// The summary artifact: named canonical-text sections in deterministic
/// order, rendered and digested exactly like checkpoint state captures.
struct RunSummary {
  std::vector<ckpt::Section> sections;

  /// Canonical text blob ("[name]\n" + payload per section).
  std::string render() const;
  /// FNV-1a of render() -- byte-equal summaries <=> equal digests.
  std::uint64_t digest() const;
};

/// Summarize one finished scenario Instance. Sections, in order:
///   meta            -- scenario name/digest, run digest, elapsed, worlds
///   phases.<w>      -- per-phase B_ij table + app-level B_req maxima
///   stalls.<w>      -- per-world async time split (exploited vs. lost)
///   link            -- per-channel capacity/traffic/resolve counters plus
///                      utilization + backlog timelines
///   metrics         -- full registry export (sim + link + worlds); trace
///                      sinks are deliberately excluded so the summary is
///                      identical whether or not tracing was enabled
RunSummary summarizeInstance(scenario::Instance& instance,
                             const SummaryOptions& options = {});

/// Write render() to `path` atomically (tmp + rename). Returns false on any
/// filesystem failure.
bool writeRunSummary(const RunSummary& summary, const std::string& path);

}  // namespace iobts::obs
