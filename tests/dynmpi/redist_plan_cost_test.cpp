// Exact cost gate for redistribution planning: the heap allocations of one
// build_redist_plan call, counted by the replacement operator new of
// alloc_counter.cpp.  A plan that rebuilds owned/needed sets per
// (src, dst) pair allocates about 8x more and fails here.
#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "dynmpi/redistributor.hpp"

namespace dynmpi {
namespace {

/// Heap allocations of one build_redist_plan call for bench/micro_redist's
/// schedule shape: `parties` nodes over 4096 rows, four arrays with a ±1
/// halo, an even block layout moving rows/(4·parties) rows from the first
/// party to the last, seen from the mid-grid rank.
std::size_t plan_allocations(int parties) {
    const int rows = 4096;
    std::vector<int> members(static_cast<std::size_t>(parties));
    for (int i = 0; i < parties; ++i) members[static_cast<std::size_t>(i)] = i;
    msg::Group g(members);
    auto oldd = Distribution::even_block(0, rows, parties);
    std::vector<int> counts(static_cast<std::size_t>(parties), rows / parties);
    counts.front() -= rows / (4 * parties);
    counts.back() += rows / (4 * parties);
    auto newd = Distribution::block(0, rows, counts);
    RedistContext ctx{rows, &g, &oldd, &g, &newd};
    std::vector<ArrayInfo> arrays;
    for (const char* name : {"A", "B", "C", "D"}) {
        ArrayInfo ai;
        ai.accesses = {Drsd{name, AccessMode::Write, 0, 1, 0},
                       Drsd{name, AccessMode::Read, 0, 1, -1},
                       Drsd{name, AccessMode::Read, 0, 1, +1}};
        arrays.push_back(std::move(ai));
    }

    RedistPlan plan;
    const std::size_t n = test::allocations_of(
        [&] { plan = build_redist_plan(ctx, arrays, parties / 2); });
    EXPECT_EQ(plan.parties.size(), static_cast<std::size_t>(parties));
    return n;
}

// Re-pin these only for an intended change to the planner, and note the old
// and new counts in CHANGES.md (docs/PERF.md).
TEST(RedistPlanCost, AllocationsAt16Parties) {
    EXPECT_EQ(plan_allocations(16), 206u);
}

TEST(RedistPlanCost, AllocationsAt64Parties) {
    EXPECT_EQ(plan_allocations(64), 782u);
}

}  // namespace
}  // namespace dynmpi
