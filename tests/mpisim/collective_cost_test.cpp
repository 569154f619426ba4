// Exact cost gate for the broadcast tree: the heap allocations that one
// collective adds to a Machine run, counted by the replacement operator new
// of alloc_counter.cpp.  Every member forwards the broadcast buffer it
// received without copying it, so a bcast hop allocates only its delivery
// event; a tree that copies the payload at each hop allocates a third to a
// half more and fails here.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "common/cluster_fixture.hpp"
#include "dynmpi/alloc_counter.hpp"
#include "mpisim/collectives.hpp"

namespace dynmpi::msg {
namespace {

constexpr int kMembers = 8;
constexpr std::size_t kDoubles = 14000;  // CG's p vector at n = 14,000
constexpr std::size_t kBytes = kDoubles * sizeof(double);

/// Heap allocations of one Machine::run of `program` on 8 quiet nodes; the
/// machine is built before counting starts.
std::size_t run_allocations(const std::function<void(Rank&)>& program) {
    Machine m(quiet_cluster(kMembers));
    return test::allocations_of([&] { m.run(program); });
}

/// What `collective` adds to a run whose ranks do nothing else.  Inputs are
/// built outside the count, so only the collective's own allocations (and
/// the engine and mailbox growth it causes) are counted.  A first run is
/// left uncounted: it also makes the process's one-time allocations.
std::size_t collective_allocations(
    const std::function<void(Rank&)>& collective) {
    const auto idle = [](Rank&) {};
    run_allocations(idle);
    const std::size_t base = run_allocations(idle);
    return run_allocations(collective) - base;
}

Group all_members() {
    std::vector<int> members(kMembers);
    for (int r = 0; r < kMembers; ++r) members[static_cast<std::size_t>(r)] = r;
    return Group(std::move(members));
}

/// A program's state, captured by one reference: the lambda then fits in
/// std::function's local buffer, and Machine::run's copy of the program
/// allocates nothing.
template <typename T>
struct PerRank {
    Group g = all_members();
    std::vector<std::vector<T>> data = std::vector<std::vector<T>>(kMembers);
    std::size_t read = 0;

    std::vector<T>& of(const Rank& rank) {
        return data[static_cast<std::size_t>(rank.id())];
    }
};

// Re-pin these only for an intended change to the collectives or the
// message layer, and note the old and new counts in CHANGES.md
// (docs/PERF.md).
TEST(CollectiveCost, AllgatherOf14000DoublesOver8Members) {
    PerRank<double> in;
    for (int r = 0; r < kMembers; ++r)
        in.data[static_cast<std::size_t>(r)].assign(kDoubles / kMembers,
                                                    r + 0.5);
    const std::size_t n = collective_allocations([&in](Rank& rank) {
        const Gathered<double> all = allgather(rank, in.g, in.of(rank));
        in.read += all.size();
    });
    EXPECT_EQ(in.read, kMembers * kDoubles);
    EXPECT_EQ(n, 57u);
}

TEST(CollectiveCost, BcastOf112000BytesOver8Members) {
    PerRank<std::byte> in;
    in.data[0].assign(kBytes, std::byte{0x5A});
    const std::size_t n = collective_allocations([&in](Rank& rank) {
        bcast(rank, in.g, 0, in.of(rank));
        in.read += in.of(rank).size();
    });
    EXPECT_EQ(in.read, kMembers * kBytes);
    EXPECT_EQ(n, 23u);
}

}  // namespace
}  // namespace dynmpi::msg
