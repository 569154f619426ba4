// Strided and multi-phase DRSD coverage: the a != 1 cases (red-black
// colorings, strided references) and their interaction with redistribution
// planning.
#include <gtest/gtest.h>

#include "dynmpi/redistributor.hpp"

namespace dynmpi {
namespace {

using msg::Group;

TEST(StridedDrsd, RedBlackColoringNeedsBothColors) {
    // A red sweep over iterations i reads rows 2i and 2i+1 of a color-split
    // array (a=2).
    std::vector<Drsd> acc{
        Drsd{"U", AccessMode::Read, 0, 2, 0},
        Drsd{"U", AccessMode::Write, 0, 2, 1},
    };
    RowSet iters(0, 8); // 8 iterations
    RowSet rows = rows_touched(acc[0], iters, 16);
    rows.add(rows_touched(acc[1], iters, 16));
    EXPECT_EQ(rows, RowSet(0, 16)); // every row touched
    RowSet writes = rows_touched(acc[1], iters, 16);
    EXPECT_EQ(writes.to_vector(),
              (std::vector<int>{1, 3, 5, 7, 9, 11, 13, 15}));
}

TEST(StridedDrsd, NeededRowsWithStrideAndBlocks) {
    Group g({0, 1});
    auto d = Distribution::block(0, 8, {4, 4});
    std::vector<Drsd> acc{Drsd{"A", AccessMode::Write, 0, 2, 0}};
    // Node 0 iterates 0..3, writing rows {0,2,4,6} of a 16-row array.
    EXPECT_EQ(needed_rows(g, d, 0, acc, 16).to_vector(),
              (std::vector<int>{0, 1, 2, 3, 4, 6}));
    // (rows 0..3 from ownership-identity plus strided writes 0/2/4/6.)
}

TEST(StridedDrsd, TransferPlanCoversStridedNeeds) {
    // Redistribution with strided accesses still satisfies every need.
    Group g({0, 1, 2});
    auto oldd = Distribution::block(0, 12, {4, 4, 4});
    auto newd = Distribution::block(0, 12, {6, 3, 3});
    std::vector<Drsd> acc{
        Drsd{"A", AccessMode::Write, 0, 1, 0},
        Drsd{"A", AccessMode::Read, 0, 2, 0}, // strided read within array
    };
    RedistContext ctx{12, &g, &oldd, &g, &newd};
    std::vector<ArrayInfo> arrays(1);
    arrays[0].accesses = acc;
    std::vector<RedistPlan> plans; // parties {0,1,2}: slot i is node i
    for (int me = 0; me < 3; ++me)
        plans.push_back(build_redist_plan(ctx, arrays, me));
    // Node 0 iterates 0..5 and reads rows {0,2,4,6,8,10}.
    EXPECT_EQ(plans[0].per_array[0].my_needed.to_vector(),
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 8, 10}));
    for (std::size_t dst = 0; dst < plans.size(); ++dst) {
        const auto& in = plans[dst].per_array[0];
        RowSet incoming;
        for (std::size_t src = 0; src < plans.size(); ++src) {
            EXPECT_EQ(plans[src].per_array[0].send_to[dst], in.recv_from[src])
                << "src " << src << " dst " << dst;
            incoming.add(in.recv_from[src]);
        }
        const int node = static_cast<int>(dst);
        RowSet need = needed_rows(g, newd, node, acc, 12);
        EXPECT_EQ(in.my_needed, need) << "dst " << dst;
        RowSet kept = owned_rows(g, oldd, node).intersect(need);
        EXPECT_EQ(incoming.unite(kept), need) << "dst " << dst;
    }
}

TEST(StridedDrsd, NegativeStrideReflectsRows) {
    // row = -i + 11: iteration k touches the mirrored row.
    Drsd d{"A", AccessMode::Read, 0, -1, 11};
    RowSet rows = rows_touched(d, RowSet(0, 4), 12);
    EXPECT_EQ(rows.to_vector(), (std::vector<int>{8, 9, 10, 11}));
}

TEST(StridedDrsd, WideStrideSparseTouch) {
    Drsd d{"A", AccessMode::Read, 0, 5, 2};
    RowSet rows = rows_touched(d, RowSet(0, 4), 100);
    EXPECT_EQ(rows.to_vector(), (std::vector<int>{2, 7, 12, 17}));
}

}  // namespace
}  // namespace dynmpi
