// Collectives on awkward group sizes.  The binomial-tree algorithms are
// easiest to get wrong off the power-of-two rail, and 2-member groups are the
// smallest case where any communication happens at all — so bcast, reduce
// and allgather are pinned against brute force on sizes 2, 3, 5, 7, and the
// flat allgather on every size from 1 to 9.
#include <gtest/gtest.h>

#include <vector>

#include "common/cluster_fixture.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/machine.hpp"
#include "support/rng.hpp"

namespace dynmpi::msg {
namespace {

/// Deterministic per-(rank, index) test value.
double value_of(int rank, int i) {
    return static_cast<double>(
               hash_combine(0x5151u, hash_combine((std::uint64_t)rank,
                                                  (std::uint64_t)i)) %
               1000) /
           7.0;
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BcastReduceAllgatherMatchBruteForce) {
    const int n = GetParam();
    // Offset members so absolute != relative ranks.
    std::vector<int> members;
    for (int i = 0; i < n; ++i) members.push_back(i + 1);
    const int len = 3;

    std::vector<double> ref_sum(len, 0.0);
    for (int rel = 0; rel < n; ++rel)
        for (int i = 0; i < len; ++i)
            ref_sum[(std::size_t)i] += value_of(members[(std::size_t)rel], i);

    Machine m(quiet_cluster(n + 1));
    m.run([&](Rank& r) {
        Group g(members);
        if (!g.contains(r.id())) {
            r.compute(0.001); // bystander: rank 0 is not a member
            return;
        }
        std::vector<double> mine((std::size_t)len);
        for (int i = 0; i < len; ++i)
            mine[(std::size_t)i] = value_of(r.id(), i);

        // bcast from every root position, including the last member.
        for (int root : {0, n - 1}) {
            auto b = mine;
            bcast(r, g, root, b);
            for (int i = 0; i < len; ++i)
                EXPECT_DOUBLE_EQ(b[(std::size_t)i],
                                 value_of(g.member(root), i));
        }

        // reduce to the last member (non-zero root exercises the rotated
        // virtual-rank tree).
        auto red = reduce(r, g, n - 1, mine, OpSum{});
        if (g.index_of(r.id()) == n - 1) {
            for (int i = 0; i < len; ++i)
                EXPECT_NEAR(red[(std::size_t)i], ref_sum[(std::size_t)i],
                            1e-9);
        }

        // allgather reassembles every member's vector in member order.
        auto all = allgather(r, g, mine);
        ASSERT_EQ(all.members(), n);
        ASSERT_EQ(all.size(), static_cast<std::size_t>(n * len));
        for (int rel = 0; rel < n; ++rel) {
            ASSERT_EQ(all.length(rel), static_cast<std::size_t>(len));
            for (int i = 0; i < len; ++i)
                EXPECT_DOUBLE_EQ(all.data()[all.start(rel) + (std::size_t)i],
                                 value_of(g.member(rel), i));
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes, ::testing::Values(2, 3, 5, 7));

/// Elements member `rel` contributes to a flat allgather: uneven, and none
/// at all for every third member.
int flat_len(int rel) { return rel % 3 == 1 ? 0 : 1 + (rel * 5) % 7; }

/// Members 1..n of an (n+1)-rank machine; rank 0 stands by.
std::vector<int> offset_members(int n) {
    std::vector<int> members;
    for (int i = 0; i < n; ++i) members.push_back(i + 1);
    return members;
}

class FlatAllgather : public ::testing::TestWithParam<int> {};

// The flat buffer holds every member's elements back to back, in member
// order, with each member's start and length; zero-length members take no
// room.
TEST_P(FlatAllgather, MatchesBruteForce) {
    const int n = GetParam();
    const std::vector<int> members = offset_members(n);
    std::vector<double> expect;
    std::vector<std::size_t> starts;
    for (int rel = 0; rel < n; ++rel) {
        starts.push_back(expect.size());
        for (int i = 0; i < flat_len(rel); ++i)
            expect.push_back(value_of(members[(std::size_t)rel], i));
    }

    Machine m(quiet_cluster(n + 1));
    m.run([&](Rank& r) {
        Group g(members);
        if (!g.contains(r.id())) return;
        const int me = g.index_of(r.id());
        std::vector<double> mine;
        for (int i = 0; i < flat_len(me); ++i)
            mine.push_back(value_of(r.id(), i));
        const Gathered<double> all = allgather(r, g, mine);
        ASSERT_EQ(all.members(), n);
        ASSERT_EQ(all.size(), expect.size());
        for (int rel = 0; rel < n; ++rel) {
            EXPECT_EQ(all.start(rel), starts[(std::size_t)rel]);
            EXPECT_EQ(all.length(rel),
                      static_cast<std::size_t>(flat_len(rel)));
        }
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(all.data()[i], expect[i]) << "element " << i;
    });
}

INSTANTIATE_TEST_SUITE_P(Members, FlatAllgather, ::testing::Range(1, 10));

// The wire cost of allgather is pinned: a linear gather at member 0, then a
// bcast of the lengths and one of the flat data.  6 members, 12 doubles:
// 5 gather sends of 88 bytes in all, 5 sends of the 48-byte lengths and 5 of
// the 96-byte data, and the virtual time they take.
TEST(FlatAllgatherWire, TrafficAndTimeArePinned) {
    const int n = 6;
    const std::vector<int> members = offset_members(n);
    Machine m(quiet_cluster(n + 1));
    m.run([&](Rank& r) {
        Group g(members);
        if (!g.contains(r.id())) return;
        const int me = g.index_of(r.id());
        allgather(r, g,
                  std::vector<double>(static_cast<std::size_t>(flat_len(me)),
                                      1.5 * me));
    });
    const auto coll = static_cast<std::size_t>(TagSpace::Collective);
    EXPECT_EQ(m.traffic().messages[coll], 15u);
    EXPECT_EQ(m.traffic().bytes[coll], 808u);
    EXPECT_EQ(m.traffic().total_messages(), 15u);
    EXPECT_DOUBLE_EQ(m.elapsed_seconds(), 0.0010167850000000001);
}

}  // namespace
}  // namespace dynmpi::msg
