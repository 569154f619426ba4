// Exact cost gate for dense row storage: the heap allocations of
// DenseArray's storage paths, counted by the replacement operator new of
// alloc_counter.cpp.  Rows narrower than 4 KB share blocks of up to 4 KB,
// so a CG vector's 1,750 one-double rows take a handful of allocations;
// rows of 4 KB or wider keep one allocation each (Figure 3).  A return to
// one allocation per narrow row fails here hundreds of times over.
#include <gtest/gtest.h>

#include <memory>

#include "alloc_counter.hpp"
#include "dynmpi/dense_array.hpp"

namespace dynmpi {
namespace {

/// One CG vector on the fourth of 8 nodes: n = 14000, rows [5250, 7000),
/// which start and end inside a 512-row block.
constexpr int kN = 14000;
const RowSet kMine(5250, 7000);

DenseArray cg_vector() { return DenseArray("p", kN, 1, sizeof(double)); }

// Re-pin these only for an intended change to DenseArray's storage, and
// note the old and new counts in CHANGES.md (docs/PERF.md).
TEST(DenseStorageCost, EnsureNarrowRows) {
    DenseArray a = cg_vector();
    ASSERT_EQ(a.block_rows(), 512);
    // Four blocks, the row table and the held set.
    EXPECT_EQ(test::allocations_of([&] { a.ensure_rows(kMine); }), 6u);
}

TEST(DenseStorageCost, ReplicaRoundIntoEmptyThenPopulatedShadow) {
    DenseArray a = cg_vector();
    a.ensure_rows(kMine);
    a.for_each_span(kMine, [&](int lo, int hi) {
        double* p = a.span_ptr<double>(lo, hi);
        for (int r = lo; r < hi; ++r) p[r - lo] = 0.5 * r;
    });
    const std::unique_ptr<DistArray> shadow = a.empty_like();
    const auto round = [&] { shadow->unpack_rows(a.pack_rows(kMine)); };
    // The packed buffer, the framed rows, the row table, four blocks and
    // the held set; then the buffer and the framed rows alone (the held
    // set already contains the rows).
    EXPECT_EQ(test::allocations_of(round), 8u);
    EXPECT_EQ(test::allocations_of(round), 2u);
    EXPECT_EQ(shadow->pack_rows(kMine), a.pack_rows(kMine));
}

TEST(DenseStorageCost, WideRowsKeepOneBlockPerRow) {
    // Jacobi's 16 KB rows, one node's 512 of 2048.
    DenseArray a("u", 2048, 2048, sizeof(double));
    ASSERT_EQ(a.block_rows(), 1);
    const RowSet mine(512, 1024);
    // 512 rows, the row table and the held set.
    EXPECT_EQ(test::allocations_of([&] { a.ensure_rows(mine); }), 514u);
}

}  // namespace
}  // namespace dynmpi
