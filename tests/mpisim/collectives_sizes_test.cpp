// Collectives on awkward group sizes.  The binomial-tree algorithms are
// easiest to get wrong off the power-of-two rail, and 2-member groups are the
// smallest case where any communication happens at all — so bcast, reduce,
// allgather, and scan are pinned against brute force on sizes 2, 3, 5, 7.
// The scan check uses 2x2 matrix products, a genuinely non-commutative op,
// to verify the chain applies partial results in exact member order.
#include <gtest/gtest.h>

#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/machine.hpp"
#include "support/rng.hpp"

namespace dynmpi::msg {
namespace {

sim::ClusterConfig cfg(int nodes) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.cpu.jitter_frac = 0.0;
    return c;
}

/// Deterministic per-(rank, index) test value.
double value_of(int rank, int i) {
    return static_cast<double>(
               hash_combine(0x5151u, hash_combine((std::uint64_t)rank,
                                                  (std::uint64_t)i)) %
               1000) /
           7.0;
}

/// Row-major 2x2 matrix; multiplication does not commute.
struct Mat2 {
    double a, b, c, d;
};

struct MatMul {
    Mat2 operator()(const Mat2& x, const Mat2& y) const {
        return {x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
                x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
    }
};

/// Per-member matrix with no special structure (shears or diagonals would
/// commute and defeat the ordering check).
Mat2 mat_of(int rel) {
    return {1.0 + rel % 3, 2.0 + rel % 5, static_cast<double>(rel % 4),
            2.0 - rel % 2};
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

    Machine m(cfg(n + 1));
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
        ASSERT_EQ(static_cast<int>(all.size()), n);
        for (int rel = 0; rel < n; ++rel)
            for (int i = 0; i < len; ++i)
                EXPECT_DOUBLE_EQ(all[(std::size_t)rel][(std::size_t)i],
                                 value_of(g.member(rel), i));
    });
}

TEST_P(CollectiveSizes, ScanAppliesNonCommutativeOpInMemberOrder) {
    const int n = GetParam();
    std::vector<int> members;
    for (int i = 0; i < n; ++i) members.push_back(i);

    // Reference: left-fold prefix products in member order.
    std::vector<Mat2> ref((std::size_t)n);
    ref[0] = mat_of(0);
    for (int rel = 1; rel < n; ++rel)
        ref[(std::size_t)rel] = MatMul{}(ref[(std::size_t)rel - 1],
                                         mat_of(rel));

    Machine m(cfg(n));
    m.run([&](Rank& r) {
        Group g(members);
        const int rel = g.index_of(r.id());
        std::vector<Mat2> mine{mat_of(rel)};
        auto pre = scan(r, g, mine, MatMul{});
        ASSERT_EQ(pre.size(), 1u);
        const Mat2& e = ref[(std::size_t)rel];
        EXPECT_DOUBLE_EQ(pre[0].a, e.a);
        EXPECT_DOUBLE_EQ(pre[0].b, e.b);
        EXPECT_DOUBLE_EQ(pre[0].c, e.c);
        EXPECT_DOUBLE_EQ(pre[0].d, e.d);
    });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes, ::testing::Values(2, 3, 5, 7));

}  // namespace
}  // namespace dynmpi::msg
