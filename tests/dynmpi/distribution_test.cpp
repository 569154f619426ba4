#include "dynmpi/distribution.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "support/error.hpp"

namespace dynmpi {
namespace {

TEST(Distribution, EvenBlockSplitsFairly) {
    auto d = Distribution::even_block(0, 10, 3);
    EXPECT_EQ(d.counts(), (std::vector<int>{4, 3, 3}));
    EXPECT_EQ(d.block_range(0), (RowInterval{0, 4}));
    EXPECT_EQ(d.block_range(1), (RowInterval{4, 7}));
    EXPECT_EQ(d.block_range(2), (RowInterval{7, 10}));
}

TEST(Distribution, VariableBlockOwnership) {
    auto d = Distribution::block(0, 10, {5, 2, 3});
    EXPECT_EQ(d.owner_of(0), 0);
    EXPECT_EQ(d.owner_of(4), 0);
    EXPECT_EQ(d.owner_of(5), 1);
    EXPECT_EQ(d.owner_of(6), 1);
    EXPECT_EQ(d.owner_of(7), 2);
    EXPECT_EQ(d.owner_of(9), 2);
}

TEST(Distribution, OwnershipConsistentWithItersOf) {
    auto d = Distribution::block(100, 200, {30, 0, 50, 20});
    for (int rel = 0; rel < 4; ++rel)
        for (int i : d.iters_of(rel).to_vector())
            EXPECT_EQ(d.owner_of(i), rel) << "iter " << i;
}

TEST(Distribution, ZeroCountPartyOwnsNothing) {
    auto d = Distribution::block(0, 10, {5, 0, 5});
    EXPECT_TRUE(d.iters_of(1).empty());
    EXPECT_EQ(d.owner_of(5), 2);
    EXPECT_EQ(d.count_of(1), 0);
}

TEST(Distribution, CountsMustCoverSpace) {
    EXPECT_THROW(Distribution::block(0, 10, {3, 3}), Error);
    EXPECT_THROW(Distribution::block(0, 10, {5, 6}), Error);
    EXPECT_THROW(Distribution::block(0, 10, {11, -1}), Error);
}

TEST(Distribution, NonZeroLowerBound) {
    auto d = Distribution::block(50, 60, {4, 6});
    EXPECT_EQ(d.owner_of(53), 0);
    EXPECT_EQ(d.owner_of(54), 1);
    EXPECT_EQ(d.iters_of(1), RowSet(54, 60));
    EXPECT_THROW(d.owner_of(49), Error);
    EXPECT_THROW(d.owner_of(60), Error);
}

TEST(Distribution, CyclicDealsRoundRobin) {
    auto d = Distribution::cyclic(0, 10, 3);
    EXPECT_EQ(d.owner_of(0), 0);
    EXPECT_EQ(d.owner_of(1), 1);
    EXPECT_EQ(d.owner_of(2), 2);
    EXPECT_EQ(d.owner_of(3), 0);
    EXPECT_EQ(d.iters_of(0).to_vector(), (std::vector<int>{0, 3, 6, 9}));
    EXPECT_EQ(d.count_of(0), 4);
    EXPECT_EQ(d.count_of(1), 3);
}

TEST(Distribution, BlockCyclicRespectsBlockSize) {
    auto d = Distribution::cyclic(0, 12, 2, 3);
    EXPECT_EQ(d.iters_of(0).to_vector(),
              (std::vector<int>{0, 1, 2, 6, 7, 8}));
    EXPECT_EQ(d.owner_of(4), 1);
    EXPECT_EQ(d.owner_of(8), 0);
}

TEST(Distribution, CyclicOwnershipConsistentWithIters) {
    auto d = Distribution::cyclic(5, 42, 4, 2);
    int covered = 0;
    for (int rel = 0; rel < 4; ++rel) {
        for (int i : d.iters_of(rel).to_vector()) {
            EXPECT_EQ(d.owner_of(i), rel);
            ++covered;
        }
    }
    EXPECT_EQ(covered, 37);
}

// The 438-interval sets behind cyclic-to-block redistribution: every
// party's set equals a brute-force owner_of scan.
TEST(Distribution, LargeCyclicItersMatchOwnerScan) {
    auto d = Distribution::cyclic(0, 14000, 8, 4);
    for (int rel = 0; rel < 8; ++rel) {
        std::vector<int> expect;
        for (int i = 0; i < 14000; ++i)
            if (d.owner_of(i) == rel) expect.push_back(i);
        EXPECT_EQ(d.iters_of(rel).to_vector(), expect) << "party " << rel;
    }
    EXPECT_EQ(d.iters_of(0).intervals().size(), 438u);
}

TEST(Distribution, EveryIterationHasExactlyOneOwner) {
    auto d = Distribution::block(0, 100, {13, 0, 37, 50});
    std::vector<int> owners(100, -1);
    for (int rel = 0; rel < 4; ++rel)
        for (int i : d.iters_of(rel).to_vector()) {
            EXPECT_EQ(owners[(size_t)i], -1);
            owners[(size_t)i] = rel;
        }
    for (int i = 0; i < 100; ++i) EXPECT_NE(owners[(size_t)i], -1);
}

/// Every run for_each_interval visits, in visiting order.
std::vector<RowInterval> visited(const Distribution& d, int rel) {
    std::vector<RowInterval> out;
    d.for_each_interval(rel, [&](RowInterval iv) { out.push_back(iv); });
    return out;
}

/// for_each_interval visits exactly iters_of's intervals, and count_of
/// matches its count, for every party; a set-built owner_of scan agrees
/// with both.
void expect_visits_match_sets(const Distribution& d) {
    int covered = 0;
    for (int rel = 0; rel < d.parties(); ++rel) {
        const RowSet set = d.iters_of(rel);
        EXPECT_EQ(visited(d, rel), set.intervals()) << "party " << rel;
        EXPECT_EQ(d.count_of(rel), set.count()) << "party " << rel;
        for (int i : set.to_vector()) EXPECT_EQ(d.owner_of(i), rel);
        covered += set.count();
    }
    EXPECT_EQ(covered, d.total_iters());
}

TEST(Distribution, ForEachIntervalMatchesBlockSets) {
    expect_visits_match_sets(Distribution::block(0, 100, {13, 0, 37, 50}));
    expect_visits_match_sets(Distribution::block(50, 60, {0, 4, 0, 6, 0}));
    expect_visits_match_sets(Distribution::block(7, 7, {0, 0}));
    expect_visits_match_sets(Distribution::even_block(3, 20, 5));
    // A zero-count party is never visited.
    EXPECT_TRUE(visited(Distribution::block(0, 10, {5, 0, 5}), 1).empty());
}

TEST(Distribution, ForEachIntervalMatchesCyclicSets) {
    for (int block : {1, 3, 4})
        for (int parties : {1, 2, 3, 5})
            for (auto [lo, hi] : {std::pair{0, 37}, std::pair{5, 42},
                                  std::pair{11, 11}, std::pair{2, 5},
                                  std::pair{0, 14000}}) {
                SCOPED_TRACE(testing::Message()
                             << "block " << block << " parties " << parties
                             << " [" << lo << ", " << hi << ")");
                expect_visits_match_sets(
                    Distribution::cyclic(lo, hi, parties, block));
            }
    // A lone party's blocks abut and are visited as one run.
    EXPECT_EQ(visited(Distribution::cyclic(5, 42, 1, 4), 0),
              (std::vector<RowInterval>{{5, 42}}));
    EXPECT_EQ(visited(Distribution::cyclic(0, 10, 3, 3), 1),
              (std::vector<RowInterval>{{3, 6}}));
    EXPECT_EQ(visited(Distribution::cyclic(1, 15, 2, 4), 1),
              (std::vector<RowInterval>{{5, 9}, {13, 15}}));
    EXPECT_THROW(visited(Distribution::cyclic(0, 10, 2), 2), Error);
}

TEST(Distribution, BlockRangeOnCyclicRejected) {
    auto d = Distribution::cyclic(0, 10, 2);
    EXPECT_THROW(d.block_range(0), Error);
}

}  // namespace
}  // namespace dynmpi
