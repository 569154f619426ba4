#include "dynmpi/drsd.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace dynmpi {
namespace {

TEST(Drsd, IdentityAccessTouchesOwnRows) {
    Drsd d{"A", AccessMode::Write, 0, 1, 0};
    RowSet iters(10, 20);
    EXPECT_EQ(rows_touched(d, iters, 100), RowSet(10, 20));
}

TEST(Drsd, OffsetAccessShiftsRows) {
    Drsd left{"B", AccessMode::Read, 0, 1, -1};
    Drsd right{"B", AccessMode::Read, 0, 1, +1};
    RowSet iters(10, 20);
    EXPECT_EQ(rows_touched(left, iters, 100), RowSet(9, 19));
    EXPECT_EQ(rows_touched(right, iters, 100), RowSet(11, 21));
}

TEST(Drsd, ClipsAtArrayBounds) {
    Drsd left{"B", AccessMode::Read, 0, 1, -1};
    EXPECT_EQ(rows_touched(left, RowSet(0, 5), 100), RowSet(0, 4));
    Drsd right{"B", AccessMode::Read, 0, 1, +1};
    EXPECT_EQ(rows_touched(right, RowSet(95, 100), 100), RowSet(96, 100));
}

TEST(Drsd, StridedCoefficient) {
    Drsd d{"A", AccessMode::Read, 0, 2, 1}; // rows 2i+1
    RowSet iters(0, 4);
    RowSet rows = rows_touched(d, iters, 100);
    EXPECT_EQ(rows.to_vector(), (std::vector<int>{1, 3, 5, 7}));
}

TEST(Drsd, ZeroCoefficientRejected) {
    Drsd d{"A", AccessMode::Read, 0, 0, 5};
    EXPECT_THROW(rows_touched(d, RowSet(0, 1), 10), Error);
}

TEST(Drsd, RowsNeededUnionsDescriptors) {
    std::vector<Drsd> ds{
        {"B", AccessMode::Read, 0, 1, -1},
        {"B", AccessMode::Read, 0, 1, 0},
        {"B", AccessMode::Read, 0, 1, +1},
    };
    RowSet iters(10, 20);
    RowSet need;
    for (const Drsd& d : ds) need.add(rows_touched(d, iters, 100));
    EXPECT_EQ(need, RowSet(9, 21)); // halo of one row on each side
}

TEST(Drsd, RowsNeededFiltersByMode) {
    std::vector<Drsd> ds{
        {"A", AccessMode::Write, 0, 1, 0},
        {"A", AccessMode::Read, 0, 1, -1},
    };
    RowSet iters(10, 20);
    auto rows_of = [&](AccessMode mode) {
        RowSet out;
        for (const Drsd& d : ds)
            if (d.mode == mode) out.add(rows_touched(d, iters, 100));
        return out;
    };
    EXPECT_EQ(rows_of(AccessMode::Write), RowSet(10, 20));
    EXPECT_EQ(rows_of(AccessMode::Read), RowSet(9, 19));
}

TEST(Drsd, NonContiguousIterSet) {
    Drsd d{"A", AccessMode::Read, 0, 1, 0};
    RowSet iters;
    iters.add(0, 2);
    iters.add(8, 10);
    RowSet rows = rows_touched(d, iters, 20);
    EXPECT_EQ(rows.to_vector(), (std::vector<int>{0, 1, 8, 9}));
}

}  // namespace
}  // namespace dynmpi
