// Tests for the second wave of collectives: scatter, scan, ring_shift.
#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/machine.hpp"

namespace dynmpi::msg {
namespace {

class ExtraCollectives : public ::testing::TestWithParam<int> {};

TEST_P(ExtraCollectives, ScatterDeliversPerMemberChunks) {
    Machine m(quiet_cluster(GetParam()));
    int n = GetParam();
    m.run([n](Rank& r) {
        Group g = Group::world(r);
        std::vector<std::vector<int>> chunks;
        if (g.index_of(r.id()) == 0) {
            for (int j = 0; j < n; ++j)
                chunks.push_back(std::vector<int>(static_cast<size_t>(j + 1),
                                                  j * 100));
        }
        auto mine = scatter(r, g, 0, chunks);
        int rel = g.index_of(r.id());
        ASSERT_EQ(mine.size(), static_cast<size_t>(rel + 1));
        for (int x : mine) EXPECT_EQ(x, rel * 100);
    });
}

TEST_P(ExtraCollectives, ScanComputesInclusivePrefix) {
    Machine m(quiet_cluster(GetParam()));
    m.run([](Rank& r) {
        Group g = Group::world(r);
        int rel = g.index_of(r.id());
        std::vector<int> v{rel + 1, 1};
        v = scan(r, g, std::move(v), OpSum{});
        // Element 0: sum of 1..rel+1; element 1: rel+1 ones.
        EXPECT_EQ(v[0], (rel + 1) * (rel + 2) / 2);
        EXPECT_EQ(v[1], rel + 1);
    });
}

TEST_P(ExtraCollectives, ScanRespectsNonCommutativeOrder) {
    Machine m(quiet_cluster(GetParam()));
    m.run([](Rank& r) {
        Group g = Group::world(r);
        int rel = g.index_of(r.id());
        // "First writer wins" op: keep the left operand.
        auto keep_left = [](int a, int) { return a; };
        std::vector<int> v{rel};
        v = scan(r, g, std::move(v), keep_left);
        EXPECT_EQ(v[0], 0); // everyone ends with member 0's value
    });
}

TEST_P(ExtraCollectives, RingShiftRoutesByDistance) {
    Machine m(quiet_cluster(GetParam()));
    int n = GetParam();
    m.run([n](Rank& r) {
        Group g = Group::world(r);
        int rel = g.index_of(r.id());
        std::vector<int> mine{rel};
        auto from1 = ring_shift(r, g, mine, 1);
        EXPECT_EQ(from1[0], (rel - 1 + n) % n);
        auto back2 = ring_shift(r, g, mine, -2);
        EXPECT_EQ(back2[0], (rel + 2) % n);
    });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, ExtraCollectives,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(ExtraCollectives, ScatterFromNonRootRejectsWrongChunkCount) {
    Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([](Rank& r) {
        Group g = Group::world(r);
        std::vector<std::vector<int>> chunks(1); // should be 2 at the root
        scatter(r, g, 0, chunks);
    }),
                 Error);
}

TEST(ExtraCollectives, ScatterOnSubgroup) {
    Machine m(quiet_cluster(4));
    m.run([](Rank& r) {
        Group sub({1, 3});
        if (!sub.contains(r.id())) return;
        std::vector<std::vector<double>> chunks;
        if (sub.index_of(r.id()) == 0) chunks = {{1.5}, {2.5}};
        auto mine = scatter(r, sub, 0, chunks);
        ASSERT_EQ(mine.size(), 1u);
        EXPECT_DOUBLE_EQ(mine[0], sub.index_of(r.id()) == 0 ? 1.5 : 2.5);
    });
}

}  // namespace
}  // namespace dynmpi::msg
