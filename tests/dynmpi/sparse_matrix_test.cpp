#include "dynmpi/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

SparseMatrix make_sparse(int rows = 10, int cols = 10) {
    return SparseMatrix("S", rows, cols);
}

void put32(std::vector<std::byte>& out, std::uint32_t v) {
    std::byte b[4];
    std::memcpy(b, &v, 4);
    out.insert(out.end(), b, b + 4);
}

void put64(std::vector<std::byte>& out, std::uint64_t v) {
    std::byte b[8];
    std::memcpy(b, &v, 8);
    out.insert(out.end(), b, b + 8);
}

TEST(SparseMatrix, SetAndGet) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 3));
    m.set(1, 4, 2.5);
    EXPECT_DOUBLE_EQ(m.get(1, 4), 2.5);
    EXPECT_DOUBLE_EQ(m.get(1, 5), 0.0); // structural zero
    EXPECT_EQ(m.nnz(), 1);
}

TEST(SparseMatrix, SetOverwritesInPlace) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 1));
    m.set(0, 2, 1.0);
    m.set(0, 2, 3.0);
    EXPECT_DOUBLE_EQ(m.get(0, 2), 3.0);
    EXPECT_EQ(m.row_nnz(0), 1);
}

TEST(SparseMatrix, RowsKeptSortedByColumn) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 1));
    m.set(0, 7, 7.0);
    m.set(0, 2, 2.0);
    m.set(0, 5, 5.0);
    std::vector<int> cols;
    for (const auto& e : m.row(0)) cols.push_back(e.col);
    EXPECT_EQ(cols, (std::vector<int>{2, 5, 7}));
}

TEST(SparseMatrix, EraseRemovesElement) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 1));
    m.set(0, 3, 1.0);
    EXPECT_TRUE(m.erase(0, 3));
    EXPECT_FALSE(m.erase(0, 3));
    EXPECT_EQ(m.nnz(), 0);
}

TEST(SparseMatrix, AccessToMissingRowRejected) {
    auto m = make_sparse();
    EXPECT_THROW(m.set(0, 0, 1.0), Error);
    EXPECT_THROW(m.row(0), Error);
    EXPECT_THROW(m.get(0, 0), Error);
}

TEST(SparseMatrix, ColumnBoundsChecked) {
    auto m = make_sparse(4, 4);
    m.ensure_rows(RowSet(0, 1));
    EXPECT_THROW(m.set(0, 4, 1.0), Error);
    EXPECT_THROW(m.set(0, -1, 1.0), Error);
}

TEST(SparseMatrix, PackUnpackRoundTripsDataAndMetadata) {
    auto src = make_sparse();
    src.ensure_rows(RowSet(0, 5));
    src.set(1, 3, 1.5);
    src.set(1, 7, 2.5);
    src.set(4, 0, -1.0);
    // Row 2 stays empty — empty rows must survive the trip too.

    auto dst = make_sparse();
    dst.unpack_rows(src.pack_rows(RowSet(1, 5)));
    EXPECT_EQ(dst.held(), RowSet(1, 5));
    EXPECT_DOUBLE_EQ(dst.get(1, 3), 1.5);
    EXPECT_DOUBLE_EQ(dst.get(1, 7), 2.5);
    EXPECT_DOUBLE_EQ(dst.get(4, 0), -1.0);
    EXPECT_EQ(dst.row_nnz(2), 0);
    EXPECT_EQ(dst.nnz(), 3);
}

TEST(SparseMatrix, UnpackPreservesColumnOrder) {
    auto src = make_sparse();
    src.ensure_rows(RowSet(0, 1));
    src.set(0, 9, 9.0);
    src.set(0, 1, 1.0);
    src.set(0, 5, 5.0);
    auto dst = make_sparse();
    dst.unpack_rows(src.pack_rows(RowSet(0, 1)));
    std::vector<int> cols;
    for (const auto& e : dst.row(0)) cols.push_back(e.col);
    EXPECT_EQ(cols, (std::vector<int>{1, 5, 9}));
}

TEST(SparseMatrix, UnpackRejectsRowBeyondGlobalRows) {
    // Regression: unpack_rows accepted any decoded row id and happily
    // materialized phantom rows outside [0, global_rows).  A blob packed by
    // a larger matrix must be rejected by a smaller one.
    SparseMatrix src("S", 20, 10);
    src.ensure_rows(RowSet(12, 13));
    src.set(12, 3, 1.0);
    auto blob = src.pack_rows(RowSet(12, 13));
    auto dst = make_sparse(10, 10);
    EXPECT_THROW(dst.unpack_rows(blob), Error);
    EXPECT_TRUE(dst.held().empty());
    EXPECT_FALSE(dst.has_row(12));
}

TEST(SparseMatrix, UnpackRejectsNegativeRowId) {
    // A row id whose u32 wire encoding decodes to a negative int.
    std::vector<std::byte> blob;
    put32(blob, 1);           // nrows
    put32(blob, 0xFFFFFFFFu); // row id -1
    put64(blob, 0);           // empty payload
    auto dst = make_sparse();
    EXPECT_THROW(dst.unpack_rows(blob), Error);
    EXPECT_TRUE(dst.held().empty());
}

TEST(SparseMatrix, DropFreesRows) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 4));
    m.set(2, 2, 1.0);
    m.drop_rows(RowSet(2, 3));
    EXPECT_FALSE(m.has_row(2));
    EXPECT_EQ(m.nnz(), 0);
    EXPECT_EQ(m.stats().rows_freed, 1u);
}

// ---------------------------------------------------------------------------
// Paper-style cursor
// ---------------------------------------------------------------------------

TEST(SparseCursor, VisitsElementsInRowColumnOrder) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 4));
    m.set(0, 1, 0.1);
    m.set(2, 0, 2.0);
    m.set(2, 3, 2.3);
    m.set(3, 2, 3.2);

    auto c = m.cursor();
    std::vector<std::pair<int, int>> visited;
    while (!c.at_end()) {
        visited.emplace_back(c.current_row(), c.current().col);
        c.next();
    }
    EXPECT_EQ(visited,
              (std::vector<std::pair<int, int>>{{0, 1}, {2, 0}, {2, 3}, {3, 2}}));
}

TEST(SparseCursor, SkipsEmptyRows) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 5)); // all empty
    m.set(4, 4, 1.0);
    auto c = m.cursor();
    ASSERT_FALSE(c.at_end());
    EXPECT_EQ(c.current_row(), 4);
    c.next();
    EXPECT_TRUE(c.at_end());
}

TEST(SparseCursor, SetNextUpdatesValues) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 1));
    m.set(0, 0, 1.0);
    m.set(0, 1, 2.0);
    auto c = m.cursor();
    c.set_next(10.0);
    c.set_next(20.0);
    EXPECT_TRUE(c.at_end());
    EXPECT_DOUBLE_EQ(m.get(0, 0), 10.0);
    EXPECT_DOUBLE_EQ(m.get(0, 1), 20.0);
}

TEST(SparseCursor, AdvanceRowSkipsRest) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 2));
    m.set(0, 0, 1.0);
    m.set(0, 1, 2.0);
    m.set(1, 0, 3.0);
    auto c = m.cursor();
    EXPECT_EQ(c.current_row(), 0);
    c.advance_row();
    EXPECT_EQ(c.current_row(), 1);
    EXPECT_DOUBLE_EQ(c.current().value, 3.0);
}

TEST(SparseCursor, MoveFirstRestarts) {
    auto m = make_sparse();
    m.ensure_rows(RowSet(0, 1));
    m.set(0, 0, 1.0);
    auto c = m.cursor();
    c.next();
    EXPECT_TRUE(c.at_end());
    c.move_first();
    EXPECT_FALSE(c.at_end());
    EXPECT_DOUBLE_EQ(c.current().value, 1.0);
}

TEST(SparseCursor, EmptyMatrixStartsAtEnd) {
    auto m = make_sparse();
    auto c = m.cursor();
    EXPECT_TRUE(c.at_end());
    EXPECT_THROW(c.next(), Error);
}

// Property: pack/unpack round trip on random matrices preserves everything.
TEST(SparseMatrix, RandomRoundTripProperty) {
    Rng rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        int rows = 1 + static_cast<int>(rng.next_below(20));
        int cols = 1 + static_cast<int>(rng.next_below(30));
        SparseMatrix src("S", rows, cols);
        src.ensure_rows(RowSet(0, rows));
        int n = static_cast<int>(rng.next_below(60));
        for (int i = 0; i < n; ++i)
            src.set(static_cast<int>(rng.next_below((uint64_t)rows)),
                    static_cast<int>(rng.next_below((uint64_t)cols)),
                    rng.uniform(-5, 5));

        SparseMatrix dst("S", rows, cols);
        dst.unpack_rows(src.pack_rows(src.held()));
        ASSERT_EQ(dst.nnz(), src.nnz());
        for (int r = 0; r < rows; ++r) {
            ASSERT_EQ(dst.row_nnz(r), src.row_nnz(r));
            auto a = src.row(r).begin();
            auto b = dst.row(r).begin();
            for (; a != src.row(r).end(); ++a, ++b) ASSERT_EQ(*a, *b);
        }
    }
}

}  // namespace
}  // namespace dynmpi
