// Model-based tests of the §4.1 row table behind DenseArray and
// SparseMatrix.
//
// Seeded random sequences of ensure_rows / drop_rows / retain_only /
// unpack_rows / row writes run against each array and against a std::map
// model of its held rows.  After every step the held set, every row's
// contents, rows_allocated / rows_freed, nnz() and the pack_rows bytes must
// match the model, and every non-held row id — holes inside the table's
// window, negative ids and ids >= global_rows — must throw.  The dense
// kinds span the block sizes: several rows per block, blocks that the
// sequences cross with a partial last one, and one block per row.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstddef>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "array_kinds.hpp"
#include "dynmpi/row_table.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace dynmpi {
namespace {

/// The held rows of one array as a plain ordered map, with the allocation
/// counters the array should report.
template <typename T>
struct Model {
    std::map<int, typename T::Row> rows;
    std::uint64_t allocated = 0;
    std::uint64_t freed = 0;

    RowSet held() const {
        RowSet s;
        for (const auto& [r, row] : rows) s.add(r, r + 1);
        return s;
    }

    void ensure(const RowSet& s) {
        for (int r : s.to_vector())
            if (rows.try_emplace(r, T::fresh()).second) ++allocated;
    }
    void drop(const RowSet& s) {
        for (int r : s.to_vector()) freed += rows.erase(r);
    }
    void retain_only(const RowSet& keep) { drop(held().subtract(keep)); }

    std::vector<std::byte> pack() const {
        WireWriter out;
        out.u32(static_cast<std::uint32_t>(rows.size()));
        for (const auto& [r, row] : rows) {
            out.u32(static_cast<std::uint32_t>(r));
            T::put_payload(out, row);
        }
        return out.take();
    }
};

template <typename T>
void expect_matches(typename T::Array& a, const Model<T>& m) {
    const RowSet held = m.held();
    ASSERT_EQ(a.held(), held);
    for (const auto& [r, row] : m.rows) ASSERT_EQ(T::read(a, r), row) << r;
    EXPECT_EQ(a.stats().rows_allocated, m.allocated);
    EXPECT_EQ(a.stats().rows_freed, m.freed);
    std::size_t nnz = 0;
    for (const auto& [r, row] : m.rows) nnz += T::stored(row);
    EXPECT_EQ(T::nnz(a), nnz);
    EXPECT_EQ(T::canonical(a.pack_rows(held)), T::canonical(m.pack()));
    // Non-held rows: out of range, just outside the held span, and the
    // first and last holes inside it (inside the table's window).
    std::vector<int> absent = {INT_MIN,    -1000,          -1,
                               T::kRows,   T::kRows + 7,   INT_MAX};
    if (!held.empty()) {
        if (held.first() > 0) absent.push_back(held.first() - 1);
        if (held.last() + 1 < T::kRows) absent.push_back(held.last() + 1);
        const RowSet holes =
            RowSet(held.first(), held.last() + 1).subtract(held);
        if (!holes.empty()) {
            absent.push_back(holes.first());
            absent.push_back(holes.last());
        }
    }
    for (int r : absent) {
        EXPECT_THROW(T::read(a, r), Error) << "row " << r;
        T::expect_write_rejected(a, r);
    }
}

/// One to three runs of up to a third of the `rows` row ids each; every
/// other one is strided like a cyclic layout, which leaves holes inside the
/// table's window.
RowSet random_rows(Rng& rng, int rows) {
    RowSet s;
    for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
        const int lo = static_cast<int>(rng.next_below(rows));
        const int len = 1 + static_cast<int>(rng.next_below(rows / 3));
        const int hi = std::min(rows, lo + len);
        const int stride = 2 + static_cast<int>(rng.next_below(3));
        const int step = rng.next_below(2) == 0 ? 1 : stride;
        for (int r = lo; r < hi; r += step) s.add(r, r + 1);
    }
    return s;
}

/// Fills `rows` of a scratch array with random contents, packs them and
/// unpacks the buffer into `a`; the model records the same contents.
template <typename T>
void unpack_random(typename T::Array& a, Model<T>& m, const RowSet& rows,
                   Rng& rng) {
    auto src = T::make("src");
    src.ensure_rows(rows);
    for (int r : rows.to_vector()) {
        auto row = T::write(src, r, rng);
        auto [it, inserted] = m.rows.insert_or_assign(r, std::move(row));
        if (inserted) ++m.allocated;
    }
    a.unpack_rows(src.pack_rows(rows));
}

template <typename T>
class RowTableModel : public ::testing::Test {};
using ArrayKinds =
    ::testing::Types<Dense, DenseNarrow, DenseLine, DenseWide, Sparse>;
TYPED_TEST_SUITE(RowTableModel, ArrayKinds);

TYPED_TEST(RowTableModel, RandomSequencesMatchMapModel) {
    using T = TypeParam;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        auto a = T::make("A");
        Model<T> m;
        for (int step = 0; step < 120; ++step) {
            SCOPED_TRACE(step);
            const RowSet rows = random_rows(rng, T::kRows);
            switch (rng.next_below(6)) {
            case 0:
                a.ensure_rows(rows);
                m.ensure(rows);
                break;
            case 1:
                a.drop_rows(rows);
                m.drop(rows);
                break;
            case 2:
                a.retain_only(rows);
                m.retain_only(rows);
                break;
            case 3:
                unpack_random(a, m, rows, rng);
                break;
            default:
                for (auto& [r, row] : m.rows)
                    if (rng.next_below(3) == 0) row = T::write(a, r, rng);
                break;
            }
            expect_matches(a, m);
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
}

TYPED_TEST(RowTableModel, WindowGrowsAtFrontAndBack) {
    using T = TypeParam;
    Rng rng(7);
    auto a = T::make("A");
    Model<T> m;
    a.ensure_rows(RowSet(40, 44));
    m.ensure(RowSet(40, 44));
    for (int r = 40; r < 44; ++r) m.rows[r] = T::write(a, r, rng);
    expect_matches(a, m);
    // Front, past any headroom: ensure, then unpack down to row 0.
    a.ensure_rows(RowSet(20, 22));
    m.ensure(RowSet(20, 22));
    expect_matches(a, m);
    unpack_random(a, m, RowSet(0, 2), rng);
    expect_matches(a, m);
    // Back: unpack, then ensure up to the last row.
    unpack_random(a, m, RowSet(70, 72), rng);
    expect_matches(a, m);
    a.ensure_rows(RowSet(T::kRows - 1, T::kRows));
    m.ensure(RowSet(T::kRows - 1, T::kRows));
    expect_matches(a, m);
    // One row at a time, ascending and then descending.
    for (int r = 44; r < 70; ++r) {
        a.ensure_rows(RowSet::single(r));
        m.ensure(RowSet::single(r));
    }
    for (int r = 19; r >= 2; --r) {
        unpack_random(a, m, RowSet::single(r), rng);
    }
    expect_matches(a, m);
}

TYPED_TEST(RowTableModel, DropEveryRowThenReadd) {
    using T = TypeParam;
    Rng rng(11);
    auto a = T::make("A");
    Model<T> m;
    unpack_random(a, m, RowSet(10, 60), rng);
    expect_matches(a, m);
    a.drop_rows(RowSet(0, T::kRows));
    m.drop(RowSet(0, T::kRows));
    expect_matches(a, m);
    EXPECT_EQ(a.local_bytes(), 0u);
    // Re-added rows come back fresh, not with their old contents.
    a.ensure_rows(RowSet(30, 50));
    m.ensure(RowSet(30, 50));
    expect_matches(a, m);
    a.retain_only(RowSet());
    m.retain_only(RowSet());
    expect_matches(a, m);
    unpack_random(a, m, RowSet(80, 90), rng);
    expect_matches(a, m);
}

TYPED_TEST(RowTableModel, ShrinkKeepsSurvivors) {
    using T = TypeParam;
    Rng rng(13);
    auto a = T::make("A");
    Model<T> m;
    unpack_random(a, m, RowSet(0, T::kRows), rng);
    // Shrink from both ends until one row is left; the table narrows on
    // the way, and every survivor keeps its contents.
    for (int lo = 0, hi = T::kRows; hi - lo > 1; lo += 3, hi -= 5) {
        const RowSet keep(lo, std::max(lo + 1, hi));
        a.retain_only(keep);
        m.retain_only(keep);
        expect_matches(a, m);
    }
}

TYPED_TEST(RowTableModel, OutOfRangeEnsureRejectedWithoutChange) {
    using T = TypeParam;
    auto a = T::make("A");
    Model<T> m;
    a.ensure_rows(RowSet(5, 9));
    m.ensure(RowSet(5, 9));
    RowSet bad(10, 12);
    bad.add(T::kRows, T::kRows + 2);
    EXPECT_THROW(a.ensure_rows(bad), Error);
    EXPECT_THROW(a.ensure_rows(RowSet(-3, 2)), Error);
    expect_matches(a, m);
}

/// Row `r` of `a` must equal the oracle row: the same entries, strictly
/// ascending by column, and get() agreeing on every column.
void expect_sparse_row(const SparseMatrix& a, int r, const Sparse::Row& row) {
    ASSERT_EQ(Sparse::read(a, r), row) << "row " << r;
    const SparseMatrix::RowList& entries = a.row(r);
    for (std::size_t k = 1; k < entries.size(); ++k)
        ASSERT_LT(entries[k - 1].col, entries[k].col) << "row " << r;
    for (int col = 0; col < kCols; ++col) {
        const auto it = row.find(col);
        EXPECT_EQ(a.get(r, col), it == row.end() ? 0.0 : it->second)
            << "row " << r << " col " << col;
    }
}

TEST(SparseRowModel, ShuffledSetsOverwritesAndErasesMatchMap) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        auto a = Sparse::make("A");
        std::map<int, Sparse::Row> model;
        a.ensure_rows(RowSet(8, 40));
        for (int r = 8; r < 40; ++r) model[r];
        for (int step = 0; step < 400; ++step) {
            SCOPED_TRACE(step);
            const int r = 8 + static_cast<int>(rng.next_below(32));
            Sparse::Row& row = model[r];
            switch (rng.next_below(3)) {
            case 0: {
                // A batch of fresh and present columns in shuffled order.
                std::vector<int> cols(kCols);
                std::iota(cols.begin(), cols.end(), 0);
                for (std::size_t k = cols.size() - 1; k > 0; --k)
                    std::swap(cols[k], cols[rng.next_below(k + 1)]);
                cols.resize(1 + rng.next_below(kCols));
                for (int col : cols) {
                    const double v = rng.uniform(-1.0, 1.0);
                    a.set(r, col, v);
                    row[col] = v;
                }
                break;
            }
            case 1: {
                // Overwrite a present column; the entry count stays.
                if (row.empty()) break;
                auto it = row.begin();
                std::advance(it, rng.next_below(row.size()));
                it->second = rng.uniform(-1.0, 1.0);
                a.set(r, it->first, it->second);
                break;
            }
            default: {
                // Erase a column that may or may not be stored.
                const int col = static_cast<int>(rng.next_below(kCols));
                EXPECT_EQ(a.erase(r, col), row.erase(col) == 1);
                break;
            }
            }
            expect_sparse_row(a, r, row);
            if (::testing::Test::HasFatalFailure()) return;
        }
        int nnz = 0;
        for (const auto& [r, row] : model) {
            expect_sparse_row(a, r, row);
            nnz += static_cast<int>(row.size());
        }
        EXPECT_EQ(a.nnz(), nnz);

        // pack -> unpack -> pack reproduces the wire byte for byte.
        const RowSet held = a.held();
        const auto wire = a.pack_rows(held);
        auto b = Sparse::make("B");
        EXPECT_EQ(b.unpack_rows(wire), held);
        EXPECT_EQ(b.pack_rows(held), wire);
        for (const auto& [r, row] : model) expect_sparse_row(b, r, row);

        // A Cursor over the unpacked copy visits the oracle's entries in
        // order, and set_next writes through and marks its rows dirty.
        b.clear_dirty(held);
        RowSet written;
        for (const auto& [r, row] : model)
            if (!row.empty()) written.add_row(r);
        auto c = b.cursor();
        for (auto& [r, row] : model)
            for (auto& [col, v] : row) {
                ASSERT_FALSE(c.at_end());
                EXPECT_EQ(c.current_row(), r);
                EXPECT_EQ(c.current().col, col);
                EXPECT_EQ(c.current().value, v);
                v = -2.0 * v;
                c.set_next(v);
            }
        EXPECT_TRUE(c.at_end());
        for (const auto& [r, row] : model) expect_sparse_row(b, r, row);
        EXPECT_EQ(b.dirty_rows(held), written);
    }
}

TEST(DenseBlocks, RowEnsuredAgainInsideALiveBlockReadsZero) {
    auto a = DenseNarrow::make("A");
    ASSERT_EQ(a.block_rows(), 512);
    a.ensure_rows(RowSet(500, 530)); // crosses the edge at row 512
    *a.row_ptr<double>(505) = 3.0;
    *a.row_ptr<double>(520) = 4.0;
    a.drop_rows(RowSet::single(505));
    a.drop_rows(RowSet::single(520));
    // Both blocks keep held rows, so the dropped rows' old values are
    // still in their storage until ensure_rows claims them again.
    RowSet again = RowSet::single(505);
    again.add_row(520);
    a.ensure_rows(again);
    EXPECT_EQ(*a.row_ptr<double>(505), 0.0);
    EXPECT_EQ(*a.row_ptr<double>(520), 0.0);
    EXPECT_EQ(a.stats().rows_allocated, 32u);
    EXPECT_EQ(a.stats().rows_freed, 2u);
    EXPECT_EQ(a.local_bytes(), 30 * sizeof(double));
}

TEST(DenseBlocks, NonHeldRowInsideAnAllocatedBlockIsRejected) {
    auto a = DenseNarrow::make("A");
    a.ensure_rows(RowSet(0, 8));
    a.ensure_rows(RowSet(10, 20));
    const DenseArray& c = a;
    // Rows 8 and 9 share the block of rows 0-19 but are not held.
    for (int r : {8, 9}) {
        EXPECT_THROW(a.row_data(r), Error) << r;
        EXPECT_THROW(c.row_data(r), Error) << r;
        EXPECT_THROW(a.span_ptr<double>(r, r + 1), Error) << r;
        EXPECT_THROW(c.span_data(r, r + 1), Error) << r;
    }
    try {
        (void)c.span_data(0, 20);
        ADD_FAILURE() << "a span over a hole was accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("non-held row 8 of A"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_NO_THROW(a.span_ptr<double>(10, 20));
    // A row dropped from a block that stays allocated is rejected too.
    a.drop_rows(RowSet::single(15));
    EXPECT_THROW(a.row_data(15), Error);
    EXPECT_THROW(a.span_ptr<double>(10, 20), Error);
    EXPECT_NO_THROW(a.span_ptr<double>(16, 20));
    // A span must lie inside one block.
    a.ensure_rows(RowSet(500, 530));
    EXPECT_THROW(a.span_ptr<double>(500, 530), Error);
    EXPECT_THROW(a.span_ptr<double>(520, 520), Error);
    EXPECT_NO_THROW(a.span_ptr<double>(500, 512));
    EXPECT_NO_THROW(a.span_ptr<double>(512, 530));
}

TEST(DenseBlocks, SpansSplitAtBlockEdgesAndMarkDirty) {
    auto a = DenseNarrow::make("A");
    RowSet rows(500, 1100);
    rows.add(1200, 1300);
    a.ensure_rows(rows);
    a.clear_dirty(rows);
    std::vector<std::pair<int, int>> spans;
    a.for_each_span(rows, [&](int lo, int hi) { spans.emplace_back(lo, hi); });
    const std::vector<std::pair<int, int>> want = {
        {500, 512}, {512, 1024}, {1024, 1100}, {1200, 1300}};
    EXPECT_EQ(spans, want);
    // Row lo + k of a span is element k; the const span marks nothing.
    for (auto [lo, hi] : spans) {
        double* p = a.span_ptr<double>(lo, hi);
        for (int r = lo; r < hi; ++r) p[r - lo] = r;
    }
    EXPECT_EQ(a.dirty_rows(RowSet(0, 1300)), rows);
    a.clear_dirty(rows);
    const DenseArray& c = a;
    for (auto [lo, hi] : spans) {
        const double* p = c.span_ptr<double>(lo, hi);
        EXPECT_EQ(p[0], lo);
        EXPECT_EQ(p[hi - lo - 1], hi - 1);
        EXPECT_EQ(p, c.row_ptr<double>(lo));
    }
    EXPECT_TRUE(a.dirty_rows(RowSet(0, 1300)).empty());
    EXPECT_THROW(a.span_ptr<float>(500, 512), Error);
}

TEST(RowTable, BlocksCoverAlignedRowRanges) {
    RowTable<int> t(1300, 512);
    EXPECT_EQ(t.block_rows(), 512);
    t.cover(RowSet(), 600, 1100);
    t.slot(600) = std::make_unique<int>(1);
    t.slot(1299) = std::make_unique<int>(2);
    EXPECT_EQ(*t.find(512), 1);
    EXPECT_EQ(*t.find(1023), 1);
    EXPECT_EQ(*t.find(1024), 2);
    EXPECT_EQ(t.find(511), nullptr);
    for (int r : {INT_MIN, -1, 1536, INT_MAX}) EXPECT_EQ(t.find(r), nullptr) << r;
    // Erasing one row frees its block only if no row of it is in use.
    EXPECT_EQ(t.erase(RowSet::single(700), [](int lo, int hi) {
        EXPECT_EQ(lo, 512);
        EXPECT_EQ(hi, 1024);
        return true;
    }),
              0);
    EXPECT_EQ(*t.find(700), 1);
    EXPECT_EQ(t.erase(RowSet(0, 1300), [](int, int) { return false; }), 2);
    EXPECT_EQ(t.find(700), nullptr);
    EXPECT_THROW(RowTable<int>(100, 3), Error);
}

TEST(RowTable, FindRejectsEveryRowOutsideTheWindow) {
    RowTable<int> t(100);
    EXPECT_EQ(t.find(0), nullptr);
    t.cover(RowSet(), 10, 20);
    t.slot(10) = std::make_unique<int>(1);
    t.slot(19) = std::make_unique<int>(2);
    EXPECT_EQ(*t.find(10), 1);
    EXPECT_EQ(*t.find(19), 2);
    EXPECT_EQ(t.find(15), nullptr);
    for (int r : {INT_MIN, -1, 0, 4, 26, 99, 100, INT_MAX})
        EXPECT_EQ(t.find(r), nullptr) << r;
    EXPECT_THROW(t.slot(200), Error);
    EXPECT_EQ(t.erase(RowSet(0, 100), [](int, int) { return false; }), 2);
    EXPECT_EQ(t.find(10), nullptr);
}

}  // namespace
}  // namespace dynmpi
