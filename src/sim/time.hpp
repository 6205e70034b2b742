// Simulated time.
//
// Virtual time is a double in seconds. Determinism does not depend on
// floating-point comparisons: the event queue breaks ties with a strictly
// increasing sequence number, so same-timestamp events run in scheduling
// order.
#pragma once

#include <limits>

namespace iobts::sim {

using Time = double;  // seconds of virtual time

inline constexpr Time kNoTime = -1.0;

/// "Never": later than every schedulable instant. nextEventTime() returns
/// this for an empty queue.
inline constexpr Time kInfiniteTime = std::numeric_limits<Time>::infinity();

inline constexpr Time usec(double v) { return v * 1e-6; }
inline constexpr Time msec(double v) { return v * 1e-3; }
inline constexpr Time sec(double v) { return v; }

}  // namespace iobts::sim
