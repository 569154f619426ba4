// Virtual time for the discrete-event simulator.
//
// The engine clock is an int64 count of nanoseconds since simulation start.
// Public APIs that deal in durations use double seconds for convenience and
// convert at the boundary.
#pragma once

#include <cstdint>

namespace dynmpi::sim {

/// Virtual time in nanoseconds since simulation start.
using SimTime = std::int64_t;

inline constexpr SimTime kNsPerSec = 1'000'000'000;

/// Convert double seconds to a SimTime duration (rounds to nearest ns).
constexpr SimTime from_seconds(double s) {
    return static_cast<SimTime>(s * static_cast<double>(kNsPerSec) + 0.5);
}

/// Convert a SimTime duration to double seconds.
constexpr double to_seconds(SimTime t) {
    return static_cast<double>(t) / static_cast<double>(kNsPerSec);
}

}  // namespace dynmpi::sim
