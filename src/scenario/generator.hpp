// Seeded scenario generator.
//
// Samples a valid scenario *document* (DSL text, not an AST) from the
// grammar, so every generated workload exercises the full lexer -> parser ->
// validator -> compiler pipeline before it runs -- the differential fuzz
// suite's whole point. Generation is a pure function of (config, seed): the
// only entropy source is an internal splitmix64 chain, so the same seed
// reproduces the same document forever (the determinism contract in
// DESIGN.md §10).
//
// Validity by construction:
//   * collectives and recv are never nested under rank-dependent control
//     flow (generated loop counts and branch conditions only use loop
//     variables and constants);
//   * every slot an iwrite/iread assigns is drained by a waitall in the
//     same phase body, so no program can end with pending requests;
//   * verify only ever re-checks a blocking write it immediately follows
//     (same file, offset, length, tag), so verdicts are always clean;
//   * streaming scenarios pair one producer `signal` with one consumer
//     `recv` per (channel, rank, iteration) across two equal-rank worlds,
//     so token counts balance and the pipeline terminates;
//   * generated fault plans use only degradation/blackout windows --
//     transfers slow down or stall but never fail, keeping the
//     conservation-of-bytes invariant exact.
//
// Every seed = 2 (mod 5) gives its worlds the default node-local burst
// buffer (`burst_buffer = 1`): writes are absorbed locally and drained to
// the link before the world finishes, so the byte totals still balance.
#pragma once

#include <cstdint>
#include <string>

#include "util/units.hpp"

namespace iobts::scenario {

struct GeneratorConfig {
  int max_ranks = 6;
  int max_phases = 3;
  int max_repeat = 3;
  /// Statements sampled per phase body (before the closing waitall).
  int max_stmts = 6;
  /// Upper bound for generated transfer sizes.
  Bytes max_bytes = 1 * kMiB;
  /// Every 4th seed emits a producer/consumer streaming pipeline.
  bool allow_streaming = true;
  /// Every 3rd seed carries a degradation/blackout fault plan.
  bool allow_faults = true;
};

/// Generate one scenario document. Pure in (config, seed).
std::string generateScenario(const GeneratorConfig& config,
                             std::uint64_t seed);

}  // namespace iobts::scenario
