// Canonical state capture of a scenario Instance at a quiescent point.
//
// Capture renders every observable of the instance's stack -- kernel clock
// and event-schedule digest, link byte counters and resolve statistics,
// per-world rank time splits and failure counts, run stats, and the full
// metrics export -- into deterministic `key=value` text sections. Two runs
// of the same scenario parked at the same quiescent point produce
// bit-identical sections on any host (doubles are rendered as hexfloats),
// which is what lets restore *verify* a replay instead of trusting it, and
// what makes the end-of-run digest a byte-exact equality gate between a
// straight run and a checkpoint/restore/resume run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/format.hpp"

namespace iobts::scenario {
class Instance;
}  // namespace iobts::scenario

namespace iobts::ckpt {

struct CaptureOptions {
  /// Include the raw kernel clock and pending-schedule digest. On for
  /// checkpoints (replay parks the clock identically); off for end-of-run
  /// digests, where a checkpointing driver's final runUntil() may have
  /// parked the clock past the last event while every *physical*
  /// observable is identical to a straight run's.
  bool include_clock = true;
};

/// Capture the instance's state sections in deterministic order. The
/// instance must be at a quiescent point (between events); capture does not
/// mutate simulation state.
std::vector<Section> captureInstanceState(scenario::Instance& instance,
                                          const CaptureOptions& options = {});

/// Concatenate sections into one canonical text blob (name header + payload
/// per section) -- the digest input.
std::string joinSections(const std::vector<Section>& sections);

/// FNV digest of the instance's end-of-run state (clock excluded; see
/// CaptureOptions::include_clock). Byte-equal runs => equal digests.
std::uint64_t runDigest(scenario::Instance& instance);

/// Compare `expected` (snapshot) against `actual` (recapture after replay);
/// on the first differing, missing, or extra section throw
/// CheckpointError{StateDivergence} naming the section and the first
/// differing line of its payload. `origin` names the checkpoint file.
void requireSectionsEqual(const std::vector<Section>& expected,
                          const std::vector<Section>& actual,
                          const std::string& origin);

}  // namespace iobts::ckpt
