// Snapshot: what a checkpoint *means*.
//
// The simulator's state lives partly in coroutine frames, which cannot be
// serialized. A snapshot therefore stores three things instead of frames:
//
//   identity   -- the full scenario source text (embedded, so a checkpoint
//                 is self-contained) and its FNV digest;
//   watermark  -- the quiescent virtual time the run was parked at;
//   state      -- canonical per-subsystem `key=value` sections capturing
//                 everything observable at the watermark (clock, event
//                 schedule digest, link counters, per-rank time splits,
//                 run stats, the full metrics export).
//
// Restore rebuilds the stack from the embedded scenario, deterministically
// replays to the watermark (bounded by the checkpoint interval), then
// verifies every state section bit-for-bit against the snapshot. The
// replay makes resumption exact by construction; the verification makes
// foreign, corrupted, or version-skewed checkpoints loudly rejectable
// (ScenarioMismatch / StateDivergence) instead of silently wrong.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "sim/time.hpp"

namespace iobts::ckpt {

/// Section names with this prefix hold captured subsystem state; everything
/// else ("meta", "scenario") is identity/watermark.
inline constexpr const char* kStatePrefix = "state.";

struct Snapshot {
  /// Scenario name as declared in the DSL (diagnostics only).
  std::string scenario_name;
  /// The complete scenario source text; restore re-parses this, so a
  /// checkpoint needs no side files.
  std::string scenario_text;
  /// util::hashName(scenario_text). Redundant with the text on purpose:
  /// the pair is the cheap cross-check that a checkpoint and a scenario
  /// (or a checkpoint and its own embedded text) belong together.
  std::uint64_t scenario_digest = 0;
  /// Quiescent virtual time the run is parked at: the runUntil() limit.
  sim::Time watermark = 0.0;
  /// Captured state sections, names starting with kStatePrefix, in
  /// capture order (deterministic).
  std::vector<Section> state;
};

/// Snapshot -> container sections ("meta", "scenario", state...).
CheckpointFile encodeSnapshot(const Snapshot& snapshot);

/// Container -> snapshot. Strict: unknown or missing meta keys, bad
/// numbers, or non-state extra sections are Malformed; an embedded text /
/// declared digest disagreement is ScenarioMismatch. `origin` names the
/// file in diagnostics.
Snapshot decodeSnapshot(const CheckpointFile& file, const std::string& origin);

}  // namespace iobts::ckpt
