#include "dynmpi/dense_array.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace dynmpi {
namespace {

DenseArray make_dense(int rows = 16, int cols = 4) {
    return DenseArray("A", rows, cols, sizeof(double));
}

void fill(DenseArray& a, int row) {
    for (int j = 0; j < a.row_elems(); ++j)
        a.at<double>(row, j) = row * 100.0 + j;
}

void expect_filled(const DenseArray& a, int row) {
    for (int j = 0; j < a.row_elems(); ++j)
        EXPECT_DOUBLE_EQ(a.at<double>(row, j), row * 100.0 + j);
}

TEST(DenseArray, EnsureAllocatesZeroedRows) {
    auto a = make_dense();
    a.ensure_rows(RowSet(2, 5));
    EXPECT_EQ(a.held(), RowSet(2, 5));
    for (int r = 2; r < 5; ++r)
        for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(a.at<double>(r, j), 0.0);
    EXPECT_EQ(a.stats().rows_allocated, 3u);
}

TEST(DenseArray, EnsureIsIdempotent) {
    auto a = make_dense();
    a.ensure_rows(RowSet(0, 4));
    fill(a, 1);
    a.ensure_rows(RowSet(0, 4)); // must not wipe existing data
    expect_filled(a, 1);
    EXPECT_EQ(a.stats().rows_allocated, 4u);
}

TEST(DenseArray, AccessToMissingRowRejected) {
    auto a = make_dense();
    a.ensure_rows(RowSet(0, 2));
    EXPECT_THROW(a.at<double>(5, 0), Error);
    EXPECT_THROW(a.row_data(2), Error);
}

TEST(DenseArray, RowPtrChecksTypeAndHeldRow) {
    auto a = make_dense();
    a.ensure_rows(RowSet(0, 2));
    EXPECT_THROW(a.row_ptr<float>(0), Error);
    EXPECT_THROW(a.row_ptr<double>(5), Error);
    const DenseArray& c = a;
    EXPECT_THROW(c.row_ptr<float>(0), Error);
    EXPECT_THROW(c.row_ptr<double>(5), Error);
    fill(a, 1);
    EXPECT_EQ(c.row_ptr<double>(1), &c.at<double>(1, 0));
    EXPECT_DOUBLE_EQ(c.row_ptr<double>(1)[3], 103.0);
}

TEST(DenseArray, RowPtrMarksOnlyItsRowDirty) {
    auto a = make_dense();
    const RowSet all(0, 16);
    a.ensure_rows(all);
    a.clear_dirty(all);

    const DenseArray& c = a;
    for (int r = 0; r < 16; ++r) (void)c.row_ptr<double>(r);
    EXPECT_TRUE(a.dirty_rows(all).empty());

    double* row = a.row_ptr<double>(7);
    row[2] = 1.5;
    EXPECT_EQ(a.dirty_rows(all), RowSet::single(7));
    EXPECT_DOUBLE_EQ(a.at<double>(7, 2), 1.5);
}

TEST(DenseArray, DropReleasesRows) {
    auto a = make_dense();
    a.ensure_rows(RowSet(0, 8));
    a.drop_rows(RowSet(2, 4));
    EXPECT_FALSE(a.has_row(2));
    EXPECT_TRUE(a.has_row(4));
    EXPECT_EQ(a.stats().rows_freed, 2u);
    EXPECT_EQ(a.held().count(), 6);
}

TEST(DenseArray, PackUnpackRoundTripsData) {
    auto src = make_dense();
    src.ensure_rows(RowSet(3, 7));
    for (int r = 3; r < 7; ++r) fill(src, r);

    auto dst = make_dense();
    dst.unpack_rows(src.pack_rows(RowSet(4, 6)));
    EXPECT_EQ(dst.held(), RowSet(4, 6));
    expect_filled(dst, 4);
    expect_filled(dst, 5);
}

TEST(DenseArray, UnpackOverwritesExistingRows) {
    auto src = make_dense(), dst = make_dense();
    src.ensure_rows(RowSet(0, 1));
    fill(src, 0);
    dst.ensure_rows(RowSet(0, 1)); // zeroed
    dst.unpack_rows(src.pack_rows(RowSet(0, 1)));
    expect_filled(dst, 0);
    EXPECT_EQ(dst.stats().rows_allocated, 1u); // reused, not reallocated
}

TEST(DenseArray, PackNonContiguousRows) {
    auto src = make_dense(), dst = make_dense();
    RowSet rows;
    rows.add(1, 2);
    rows.add(9, 11);
    src.ensure_rows(rows);
    fill(src, 1);
    fill(src, 9);
    fill(src, 10);
    dst.unpack_rows(src.pack_rows(rows));
    EXPECT_EQ(dst.held(), rows);
    expect_filled(dst, 10);
}

TEST(DenseArray, RetainOnlyKeepsRequestedRows) {
    auto a = make_dense();
    a.ensure_rows(RowSet(0, 10));
    fill(a, 4);
    a.retain_only(RowSet(4, 6));
    EXPECT_EQ(a.held(), RowSet(4, 6));
    expect_filled(a, 4); // survivor untouched — projection reuse
}

TEST(DenseArray, EnsureOutOfRangeRejected) {
    auto a = make_dense(8);
    EXPECT_THROW(a.ensure_rows(RowSet(6, 10)), Error);
}

TEST(DenseArray, ProjectionDoesNotCopyOnGrowth) {
    // The headline property of §4.1.1: growing the held set never touches
    // existing rows.
    auto a = make_dense(1000, 64);
    a.ensure_rows(RowSet(0, 100));
    const std::byte* before = a.row_data(50);
    a.ensure_rows(RowSet(100, 900));
    EXPECT_EQ(a.row_data(50), before);
    EXPECT_EQ(a.stats().bytes_copied, 0u);
}

}  // namespace
}  // namespace dynmpi
