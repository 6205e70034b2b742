// Bandwidth-limit strategies (paper Sec. IV-B).
//
// After each phase j the tracer computes the rank's required bandwidth B_j
// and asks the strategy for the limit to apply to phase j+1:
//
//   direct   L = B_j * tol                      (aggressive; highest
//                                                exploitation, risks waits)
//   up-only  L = max(L_prev, B_j * tol)         (safe; limits only grow)
//   adaptive L = B_j * tol_p + (B_j - B_{j-1}) * tol_i
//                                               (PI-controller-like; softer
//                                                transitions)
//   mfu      L = tol * (most frequently observed B)
//                                               (the paper's future-work
//                                                "most frequently used table
//                                                of accesses": robust to
//                                                outlier phases)
//
// One strategy instance per rank -- strategies are stateful (previous B,
// previous limit).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "util/units.hpp"

namespace iobts::tmio {

enum class StrategyKind : int { None = 0, Direct, UpOnly, Adaptive, Mfu };

const char* strategyName(StrategyKind kind) noexcept;

/// Parse "none" | "direct" | "up-only" | "adaptive" | "mfu" (the names
/// strategyName prints); throws CheckError listing them on other input.
StrategyKind parseStrategy(std::string_view name);

struct StrategyParams {
  /// The paper's tol: compensates for effects invisible at the MPI level
  /// (thread interference etc.). Fig. 7 uses 2.0 (direct) and 1.1 (up-only);
  /// Fig. 11 uses 1.1 for all.
  double tolerance = 1.1;
  /// The adaptive strategy's integral gain (tol_i).
  double adaptive_gain = 0.5;
  /// MFU: bucket width as a multiplicative step (1.25 = 25 % wide buckets).
  double mfu_bucket_factor = 1.25;
  /// MFU: phases to observe (direct behaviour) before trusting the table.
  int mfu_warmup = 3;
  /// Never limit below this floor (a zero/negative limit would stall I/O).
  BytesPerSec min_limit = 1.0;
};

class LimitStrategy {
 public:
  virtual ~LimitStrategy() = default;
  virtual StrategyKind kind() const noexcept = 0;

  /// B_j just computed at the matching wait; returns the limit for phase
  /// j+1, or nullopt for "do not limit" (the None strategy).
  virtual std::optional<BytesPerSec> nextLimit(BytesPerSec required) = 0;
};

/// Factory; one instance per rank.
std::unique_ptr<LimitStrategy> makeStrategy(StrategyKind kind,
                                            const StrategyParams& params);

}  // namespace iobts::tmio
