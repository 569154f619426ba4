// Fragmentation stress: cyclic ownership makes every transfer set maximally
// fragmented; data integrity and plan coverage must hold regardless.
#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "dynmpi/dense_array.hpp"
#include "dynmpi/redistributor.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

using msg::Group;

TEST(CyclicRedistStress, CyclicToBlockMovesEverythingIntact) {
    const int nodes = 8, rows = 128;
    msg::Machine m(quiet_cluster(nodes));
    m.run([&](msg::Rank& r) {
        std::vector<int> members(nodes);
        for (int i = 0; i < nodes; ++i) members[(std::size_t)i] = i;
        Group g(members);
        auto oldd = Distribution::cyclic(0, rows, nodes);
        auto newd = Distribution::even_block(0, rows, nodes);

        std::vector<ArrayInfo> arrays;
        ArrayInfo ai;
        ai.array = std::make_unique<DenseArray>("A", rows, 2, sizeof(double));
        ai.accesses = {Drsd{"A", AccessMode::Write, 0, 1, 0}};
        arrays.push_back(std::move(ai));
        auto& A = static_cast<DenseArray&>(*arrays[0].array);
        A.ensure_rows(owned_rows(g, oldd, r.id()));
        for (int row : owned_rows(g, oldd, r.id()).to_vector())
            A.at<double>(row, 0) = row * 1.5;

        RedistContext ctx{rows, &g, &oldd, &g, &newd};
        auto stats = execute_redistribution(r, ctx, arrays, 11);
        // Under cyclic->block, this node keeps only the rows of its own new
        // block that it cyclically owned (one in every `nodes`), shipping
        // the rest: 16 owned - 2 kept = 14 here.
        EXPECT_EQ(static_cast<int>(stats.rows_moved),
                  rows / nodes - rows / (nodes * nodes));
        for (int row : owned_rows(g, newd, r.id()).to_vector())
            EXPECT_DOUBLE_EQ(A.at<double>(row, 0), row * 1.5);
        EXPECT_EQ(A.held(), owned_rows(g, newd, r.id()));
    });
}

TEST(CyclicRedistStress, RandomBlockPairsPreserveData) {
    Rng rng(99);
    for (int trial = 0; trial < 6; ++trial) {
        const int nodes = 2 + static_cast<int>(rng.next_below(5));
        const int rows = nodes * (4 + static_cast<int>(rng.next_below(12)));
        // Two random block distributions.
        auto random_counts = [&]() {
            std::vector<int> c(static_cast<std::size_t>(nodes), 1);
            int left = rows - nodes;
            for (int k = 0; k < left; ++k)
                ++c[rng.next_below((std::uint64_t)nodes)];
            return c;
        };
        auto c1 = random_counts(), c2 = random_counts();

        msg::Machine m(quiet_cluster(nodes));
        m.run([&](msg::Rank& r) {
            std::vector<int> members(nodes);
            for (int i = 0; i < nodes; ++i) members[(std::size_t)i] = i;
            Group g(members);
            auto oldd = Distribution::block(0, rows, c1);
            auto newd = Distribution::block(0, rows, c2);
            std::vector<ArrayInfo> arrays;
            ArrayInfo ai;
            ai.array =
                std::make_unique<DenseArray>("A", rows, 1, sizeof(double));
            ai.accesses = {Drsd{"A", AccessMode::Write, 0, 1, 0}};
            arrays.push_back(std::move(ai));
            auto& A = static_cast<DenseArray&>(*arrays[0].array);
            A.ensure_rows(owned_rows(g, oldd, r.id()));
            for (int row : owned_rows(g, oldd, r.id()).to_vector())
                A.at<double>(row, 0) = row + 0.25;

            RedistContext ctx{rows, &g, &oldd, &g, &newd};
            execute_redistribution(r, ctx, arrays, 21);
            for (int row : owned_rows(g, newd, r.id()).to_vector())
                ASSERT_DOUBLE_EQ(A.at<double>(row, 0), row + 0.25)
                    << "trial " << trial << " rank " << r.id();
        });
    }
}

}  // namespace
}  // namespace dynmpi
