// Heap allocation counting for the exact cost gates (docs/PERF.md).
//
// alloc_counter.cpp replaces every form of operator new and delete with
// one that counts allocations while counting is on.  A count is a pure
// function of the code and its inputs, so a gate built on it reads no
// clock and cannot flake on a busy host.  Link alloc_counter.cpp only into
// a test binary of its own: the replacement would otherwise stand in for
// the sanitizer's checked operator new in the other test binaries.
#pragma once

#include <cstddef>

namespace dynmpi::test {

void start_counting_allocations();
/// Stops counting; returns the allocations since the matching start.
std::size_t stop_counting_allocations();

/// Heap allocations made by f().
template <typename F>
std::size_t allocations_of(F&& f) {
    start_counting_allocations();
    f();
    return stop_counting_allocations();
}

}  // namespace dynmpi::test
