// Reduced-scale paper-figure configurations ("quick" twins).
//
// The golden-digest gate and the scenario twin suite both run fig10
// (WaComM++) and fig13 (HACC-IO) at this scale; sharing the factories (and
// the checked-in digests) here is what makes "the DSL twin is byte-identical
// to the hand-coded workload" a single-source claim instead of two copies
// that could drift apart.
#pragma once

#include <cstdint>

#include "pfs/shared_link.hpp"
#include "tmio/tracer.hpp"
#include "workloads/hacc_io.hpp"
#include "workloads/wacomm.hpp"

namespace iobts::workloads {

inline constexpr int kFig10QuickRanks = 48;
inline constexpr int kFig13QuickRanks = 32;

/// Golden digests of the canonical run serializations (see
/// tests/support/golden.hpp). Regenerate with IOBTS_DUMP_GOLDEN=1.
inline constexpr std::uint64_t kFig10QuickDigest = 0x8c4748554547ac7bULL;
inline constexpr std::uint64_t kFig13QuickDigest = 0x6038e3b0b4acfdebULL;

/// The Lichtenberg-calibrated PFS (paper Sec. V): 106/120 GB/s with a
/// 1.5 GB/s per-client cap.
pfs::LinkConfig lichtenbergLinkConfig();

/// fig10 runs on the Lichtenberg link plus light congestion.
pfs::LinkConfig fig10QuickLinkConfig();

/// Fig. 10 at reduced scale: 2e5 particles, 2048 B/particle, 6 iterations,
/// the bench's compute split. Run on kFig10QuickRanks ranks.
WacommConfig fig10QuickWacommConfig();

/// HACC-IO configured to the paper's observed scale behaviour: phase lengths
/// grow from ~0.6 s (1 rank) to ~105 s (9216 ranks) on the production
/// cluster (Sec. VI-B). The compute/verify blocks follow that measured
/// phase-length curve (0.30 and 0.25 x ranks^0.55) because the growth stems
/// from production-cluster effects (cross-job interference, collective
/// skew) outside the fluid PFS model. Nine requests per write mirror
/// HACC-IO's nine particle arrays; particles and loops keep the paper's
/// defaults.
HaccIoConfig paperScaledHaccConfig(int ranks);

/// Fig. 13 at reduced scale: paperScaledHaccConfig(kFig13QuickRanks) with
/// 2 loops.
HaccIoConfig fig13QuickHaccConfig();

/// Tracer at the paper's 1.1 tolerance with the given strategy.
tmio::TracerConfig quickTracerConfig(tmio::StrategyKind strategy);

}  // namespace iobts::workloads
