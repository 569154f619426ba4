#include "mpisim/collectives.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"

namespace dynmpi::msg {
namespace {

class CollectivesParam : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesParam, BcastReachesAllMembers) {
    Machine m(quiet_cluster(GetParam()));
    m.run([](Rank& r) {
        Group g = Group::world(r);
        std::vector<double> data;
        if (g.index_of(r.id()) == 0) data = {1.5, 2.5, 3.5};
        bcast(r, g, 0, data);
        EXPECT_EQ(data, (std::vector<double>{1.5, 2.5, 3.5}));
    });
}

TEST_P(CollectivesParam, BcastFromNonZeroRoot) {
    Machine m(quiet_cluster(GetParam()));
    int root = GetParam() - 1;
    m.run([root](Rank& r) {
        Group g = Group::world(r);
        std::vector<int> data;
        if (g.index_of(r.id()) == root) data = {42};
        bcast(r, g, root, data);
        ASSERT_EQ(data.size(), 1u);
        EXPECT_EQ(data[0], 42);
    });
}

TEST_P(CollectivesParam, AllreduceSumsAcrossRanks) {
    Machine m(quiet_cluster(GetParam()));
    int n = GetParam();
    m.run([n](Rank& r) {
        Group g = Group::world(r);
        double sum = allreduce_scalar(r, g, static_cast<double>(r.id() + 1),
                                      OpSum{});
        EXPECT_DOUBLE_EQ(sum, n * (n + 1) / 2.0);
    });
}

TEST_P(CollectivesParam, AllreduceMinMax) {
    Machine m(quiet_cluster(GetParam()));
    int n = GetParam();
    m.run([n](Rank& r) {
        Group g = Group::world(r);
        EXPECT_EQ(allreduce_scalar(r, g, r.id(), OpMin{}), 0);
        EXPECT_EQ(allreduce_scalar(r, g, r.id(), OpMax{}), n - 1);
    });
}

TEST_P(CollectivesParam, AllreduceElementwiseVector) {
    Machine m(quiet_cluster(GetParam()));
    int n = GetParam();
    m.run([n](Rank& r) {
        Group g = Group::world(r);
        std::vector<int> v{r.id(), 2 * r.id(), 1};
        v = allreduce(r, g, std::move(v), OpSum{});
        int s = n * (n - 1) / 2;
        EXPECT_EQ(v, (std::vector<int>{s, 2 * s, n}));
    });
}

TEST_P(CollectivesParam, GatherCollectsInOrder) {
    Machine m(quiet_cluster(GetParam()));
    int n = GetParam();
    m.run([n](Rank& r) {
        Group g = Group::world(r);
        // Rank i contributes i+1 copies of its id.
        std::vector<int> mine(static_cast<size_t>(r.id() + 1), r.id());
        auto all = gather(r, g, 0, mine.data(), mine.size());
        if (g.index_of(r.id()) == 0) {
            ASSERT_EQ(static_cast<int>(all.size()), n);
            for (int i = 0; i < n; ++i) {
                EXPECT_EQ(all[(size_t)i].size(), static_cast<size_t>(i + 1));
                for (int x : all[(size_t)i]) EXPECT_EQ(x, i);
            }
        } else {
            EXPECT_TRUE(all.empty());
        }
    });
}

TEST_P(CollectivesParam, AllgatherGivesEveryoneEverything) {
    Machine m(quiet_cluster(GetParam()));
    int n = GetParam();
    m.run([n](Rank& r) {
        Group g = Group::world(r);
        auto all = allgather_scalar(r, g, 100 + r.id());
        ASSERT_EQ(static_cast<int>(all.size()), n);
        for (int i = 0; i < n; ++i) EXPECT_EQ(all[(size_t)i], 100 + i);
    });
}

TEST_P(CollectivesParam, BarrierSynchronizes) {
    Machine m(quiet_cluster(GetParam()));
    m.run([](Rank& r) {
        Group g = Group::world(r);
        // Stagger arrival; after the barrier everyone's clock is >= the
        // slowest arrival.
        r.compute(0.1 * (r.id() + 1));
        barrier(r, g);
        EXPECT_GE(r.hrtime(), 0.1 * r.size() - 1e-9);
    });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectivesParam,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

TEST(Collectives, SubgroupLeavesOutsidersUntouched) {
    Machine m(quiet_cluster(4));
    m.run([](Rank& r) {
        Group active({0, 1, 3}); // rank 2 is "removed"
        if (active.contains(r.id())) {
            double sum =
                allreduce_scalar(r, active, 1.0 * (r.id() + 1), OpSum{});
            EXPECT_DOUBLE_EQ(sum, 1.0 + 2.0 + 4.0);
        } else {
            r.compute(0.01); // does something unrelated
        }
    });
}

TEST(Collectives, RelativeRanksFollowGroupOrder) {
    Group g({5, 2, 9});
    EXPECT_EQ(g.index_of(5), 0);
    EXPECT_EQ(g.index_of(2), 1);
    EXPECT_EQ(g.index_of(9), 2);
    EXPECT_EQ(g.index_of(7), -1);
    EXPECT_EQ(g.member(2), 9);
    EXPECT_TRUE(g.contains(2));
    EXPECT_FALSE(g.contains(3));
}

TEST(Collectives, GroupHashDistinguishesMembership) {
    Group a({0, 1, 2}), b({0, 1, 3}), c({0, 1, 2});
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.hash(), c.hash());
}

TEST(Collectives, MixedGroupSequencesStayAligned) {
    // Ranks use the world group and a subgroup in interleaved order; the
    // per-group sequence counters must keep tags matched.
    Machine m(quiet_cluster(3));
    m.run([](Rank& r) {
        Group world = Group::world(r);
        Group sub({0, 2});
        for (int iter = 0; iter < 3; ++iter) {
            if (sub.contains(r.id()))
                allreduce_scalar(r, sub, r.id(), OpSum{});
            double s = allreduce_scalar(r, world, 1.0, OpSum{});
            EXPECT_DOUBLE_EQ(s, 3.0);
        }
    });
}

TEST(Collectives, NonMemberCallRejected) {
    Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([](Rank& r) {
        Group sub({0});
        allreduce_scalar(r, sub, 1, OpSum{}); // rank 1 is not a member
    }),
                 Error);
}

TEST(Collectives, EmptyGroupRejected) {
    EXPECT_THROW(Group g(std::vector<int>{}), Error);
}

TEST(Group, IndexOfCoversMembersAndEveryKindOfNonMember) {
    const Group g({5, 2, 9, 0});
    EXPECT_EQ(g.index_of(5), 0);
    EXPECT_EQ(g.index_of(2), 1);
    EXPECT_EQ(g.index_of(9), 2);
    EXPECT_EQ(g.index_of(0), 3);
    for (int gap : {1, 3, 4, 6, 7, 8}) EXPECT_EQ(g.index_of(gap), -1) << gap;
    for (int neg : {-1, -2, -1000, std::numeric_limits<int>::min()})
        EXPECT_EQ(g.index_of(neg), -1) << neg;
    for (int above : {10, 11, 1000, std::numeric_limits<int>::max()})
        EXPECT_EQ(g.index_of(above), -1) << above;
    EXPECT_FALSE(g.contains(-1));
    EXPECT_FALSE(g.contains(10));
    EXPECT_EQ(Group().index_of(0), -1); // default-constructed: no members
}

TEST(Group, CopiesAndSaltedGroupsKeepTheIndex) {
    const std::vector<int> members = {7, 3, 12, 1};
    const Group g(members);
    Group copy = g;
    Group assigned({0});
    assigned = g;
    const Group salted(members, /*salt=*/42);
    EXPECT_NE(salted.hash(), g.hash());
    const Group* copies[] = {&copy, &assigned, &salted};
    for (const Group* h : copies) {
        EXPECT_EQ(h->members(), g.members());
        for (int r = -2; r <= 14; ++r)
            EXPECT_EQ(h->index_of(r), g.index_of(r)) << r;
        for (int i = 0; i < h->size(); ++i)
            EXPECT_EQ(h->index_of(members[static_cast<std::size_t>(i)]), i);
    }
}

TEST(Group, ConstructorRejectsNegativeAndRepeatedMembers) {
    EXPECT_THROW(Group({0, -1, 2}), Error);
    EXPECT_THROW(Group({-5}), Error);
    EXPECT_THROW(Group({3, 1, 3}), Error);
    EXPECT_THROW(Group({0, 0}), Error);
    EXPECT_THROW(Group({4, 2, 4}, /*salt=*/7), Error);
}

}  // namespace
}  // namespace dynmpi::msg
