// Property tests: every collective must agree with a brute-force reference
// computed from the same inputs, across random group subsets, vector sizes,
// and value sets.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/cluster_fixture.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/machine.hpp"
#include "support/rng.hpp"

namespace dynmpi::msg {
namespace {

/// Deterministic per-(seed, rank, index) test value.
double value_of(std::uint64_t seed, int rank, int i) {
    return static_cast<double>(
               hash_combine(hash_combine(seed, (std::uint64_t)rank),
                            (std::uint64_t)i) %
               1000) /
           7.0;
}

class CollectiveProperty : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveProperty, AllOpsMatchBruteForce) {
    std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 1299709;
    Rng rng(seed);
    const int world = 3 + static_cast<int>(rng.next_below(6)); // 3..8
    // Random subset of at least 2 members, in random order-preserving form.
    std::vector<int> members;
    for (int i = 0; i < world; ++i)
        if (rng.next_double() < 0.7) members.push_back(i);
    while (static_cast<int>(members.size()) < 2)
        members.push_back(world - 1 - static_cast<int>(members.size()));
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    const int n = static_cast<int>(members.size());
    const int len = 1 + static_cast<int>(rng.next_below(5));
    const int root = static_cast<int>(rng.next_below((std::uint64_t)n));

    // Brute-force references.
    std::vector<double> ref_sum(static_cast<std::size_t>(len), 0.0);
    std::vector<double> ref_max(static_cast<std::size_t>(len), -1e300);
    for (int rel = 0; rel < n; ++rel)
        for (int i = 0; i < len; ++i) {
            double v = value_of(seed, members[(std::size_t)rel], i);
            ref_sum[(std::size_t)i] += v;
            ref_max[(std::size_t)i] = std::max(ref_max[(std::size_t)i], v);
        }

    Machine m(quiet_cluster(world));
    m.run([&](Rank& r) {
        Group g(members);
        if (!g.contains(r.id())) {
            r.compute(0.001); // bystander
            return;
        }
        std::vector<double> mine(static_cast<std::size_t>(len));
        for (int i = 0; i < len; ++i)
            mine[(std::size_t)i] = value_of(seed, r.id(), i);

        // allreduce sum + max
        auto s = allreduce(r, g, mine, OpSum{});
        auto x = allreduce(r, g, mine, OpMax{});
        for (int i = 0; i < len; ++i) {
            EXPECT_NEAR(s[(std::size_t)i], ref_sum[(std::size_t)i], 1e-9);
            EXPECT_DOUBLE_EQ(x[(std::size_t)i], ref_max[(std::size_t)i]);
        }

        // bcast from the random root
        auto b = mine;
        bcast(r, g, root, b);
        for (int i = 0; i < len; ++i)
            EXPECT_DOUBLE_EQ(b[(std::size_t)i],
                             value_of(seed, g.member(root), i));

        // allgather reassembles every member's vector
        auto all = allgather(r, g, mine);
        ASSERT_EQ(all.members(), n);
        ASSERT_EQ(all.size(), static_cast<std::size_t>(n * len));
        for (int rel = 0; rel < n; ++rel) {
            ASSERT_EQ(all.length(rel), static_cast<std::size_t>(len));
            for (int i = 0; i < len; ++i)
                EXPECT_DOUBLE_EQ(all.data()[all.start(rel) + (std::size_t)i],
                                 value_of(seed, g.member(rel), i));
        }

        // gather at the random root
        auto got = gather(r, g, root, mine.data(), mine.size());
        if (g.index_of(r.id()) == root) {
            ASSERT_EQ(static_cast<int>(got.size()), n);
            for (int rel = 0; rel < n; ++rel)
                for (int i = 0; i < len; ++i)
                    EXPECT_DOUBLE_EQ(got[(std::size_t)rel][(std::size_t)i],
                                     value_of(seed, g.member(rel), i));
        } else {
            EXPECT_TRUE(got.empty());
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace dynmpi::msg
