// Dirty-row tracking and the dense pack/unpack that the replica refresh
// runs every cycle: random flag operations against a plain vector<bool>
// model, pack bytes against a WireWriter encoding of the §4.1 row format,
// and the dirty set an unpack leaves behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "dynmpi/dense_array.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace dynmpi {
namespace {

/// The rows of `model` set within `scope`.
RowSet model_rows(const std::vector<bool>& model, const RowSet& scope) {
    RowSet out;
    for (const RowInterval& iv : scope.intervals())
        for (int r = iv.lo; r < iv.hi; ++r)
            if (model[static_cast<std::size_t>(r)]) out.add_row(r);
    return out;
}

/// One to three random intervals inside [0, n); ends land often on a
/// multiple of eight (the rows one flag load covers) and near the array end.
RowSet random_intervals(Rng& rng, int n) {
    const auto pick = [&]() -> int {
        switch (rng.next_below(4)) {
        case 0: return 8 * static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(n / 8 + 1)));
        case 1: return n - static_cast<int>(rng.next_below(3));
        default:
            return static_cast<int>(
                rng.next_below(static_cast<std::uint64_t>(n) + 1));
        }
    };
    RowSet rows;
    for (auto k = rng.next_below(3) + 1; k > 0; --k) {
        int lo = std::clamp(pick(), 0, n), hi = std::clamp(pick(), 0, n);
        if (lo > hi) std::swap(lo, hi);
        if (lo < hi) rows.add(lo, hi);
    }
    return rows;
}

TEST(DirtyRows, RandomCallsMatchVectorModel) {
    for (int n : {1, 7, 8, 9, 15, 17, 63, 64, 65, 200, 1000}) {
        SCOPED_TRACE(n);
        DenseArray a("A", n, 1, sizeof(double));
        std::vector<bool> model(static_cast<std::size_t>(n), false);
        Rng rng(0xD1 + static_cast<std::uint64_t>(n));
        for (int step = 0; step < 400; ++step) {
            switch (rng.next_below(4)) {
            case 0: {
                // Includes one row either side of the array.
                const int r = static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(n) + 2)) -
                              1;
                a.mark_row_dirty(r);
                if (r >= 0 && r < n) model[static_cast<std::size_t>(r)] = true;
                break;
            }
            case 1: {
                const RowSet rows = random_intervals(rng, n);
                a.mark_rows_dirty(rows);
                for (int r : rows.to_vector())
                    model[static_cast<std::size_t>(r)] = true;
                break;
            }
            case 2: {
                const RowSet rows = random_intervals(rng, n);
                a.clear_dirty(rows);
                for (int r : rows.to_vector())
                    model[static_cast<std::size_t>(r)] = false;
                break;
            }
            default: {
                const RowSet scope = random_intervals(rng, n);
                ASSERT_EQ(a.dirty_rows(scope), model_rows(model, scope))
                    << "step " << step;
            }
            }
            ASSERT_EQ(a.dirty_rows(RowSet(0, n)),
                      model_rows(model, RowSet(0, n)))
                << "step " << step;
        }
    }
}

TEST(DirtyRows, IntervalCallsIgnoreRowsOutsideTheArray) {
    DenseArray a("A", 70, 1, sizeof(double));
    a.mark_rows_dirty(RowSet(60, 90));
    EXPECT_EQ(a.dirty_rows(RowSet(0, 70)), RowSet(60, 70));
    a.clear_dirty(RowSet(65, 200));
    EXPECT_EQ(a.dirty_rows(RowSet(0, 70)), RowSet(60, 65));
    EXPECT_EQ(a.dirty_rows(RowSet(50, 300)), RowSet(60, 65));
}

/// An array of `row_bytes`-byte rows holding `rows`, each byte of row r
/// set from r, its offset and `salt`, and no row dirty.
DenseArray filled(std::size_t row_bytes, const RowSet& rows, int salt = 0) {
    DenseArray a("A", 300, static_cast<int>(row_bytes / sizeof(double)),
                 sizeof(double));
    a.ensure_rows(rows);
    for (int r : rows.to_vector()) {
        std::byte* p = a.row_data(r);
        for (std::size_t k = 0; k < row_bytes; ++k)
            p[k] = static_cast<std::byte>(r * 31 + static_cast<int>(k) + salt);
    }
    a.clear_dirty(RowSet(0, a.global_rows()));
    return a;
}

/// The §4.1 row format, written field by field.
std::vector<std::byte> reference_pack(const DenseArray& a,
                                      const RowSet& rows) {
    WireWriter out;
    out.u32(static_cast<std::uint32_t>(rows.count()));
    for (int r : rows.to_vector()) {
        out.u32(static_cast<std::uint32_t>(r));
        out.u64(a.row_bytes());
        out.bytes(a.row_data(r), a.row_bytes());
    }
    return out.take();
}

class DenseRowSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DenseRowSizes, PackMatchesReferenceEncoder) {
    const RowSet held = RowSet(0, 130).unite(RowSet(200, 260));
    const DenseArray a = filled(GetParam(), held);
    for (const RowSet& rows :
         {RowSet(), RowSet::single(0), RowSet(3, 9).unite(RowSet(63, 66)),
          RowSet(100, 130).unite(RowSet(201, 202)).unite(RowSet(259, 260)),
          held})
        EXPECT_EQ(a.pack_rows(rows), reference_pack(a, rows));
}

TEST_P(DenseRowSizes, UnpackCopiesAndDirtiesExactlyTheFramedRows) {
    const RowSet framed =
        RowSet(5, 6).unite(RowSet(62, 70)).unite(RowSet(127, 129));
    const DenseArray src = filled(GetParam(), framed);
    // The destination already holds rows on both sides, overlapping some.
    DenseArray dst =
        filled(GetParam(), RowSet(0, 4).unite(RowSet(60, 64)), /*salt=*/7);
    const std::vector<std::byte> blob = src.pack_rows(framed);
    EXPECT_EQ(dst.unpack_rows(blob), framed);
    EXPECT_EQ(dst.dirty_rows(RowSet(0, dst.global_rows())), framed);
    EXPECT_EQ(dst.held(), framed.unite(RowSet(0, 4)).unite(RowSet(60, 64)));
    EXPECT_EQ(dst.pack_rows(framed), blob);
}

INSTANTIATE_TEST_SUITE_P(DenseArray, DenseRowSizes,
                         ::testing::Values(8, 16, 24, 32, 16384));

TEST(DenseArray, MalformedUnpackLeavesDirtySetAlone) {
    const DenseArray src = filled(8, RowSet(10, 20));
    DenseArray dst = filled(8, RowSet(0, 5));
    std::vector<std::byte> blob = src.pack_rows(RowSet(10, 20));
    blob.pop_back();
    EXPECT_THROW(dst.unpack_rows(blob), Error);
    EXPECT_TRUE(dst.dirty_rows(RowSet(0, dst.global_rows())).empty());
    EXPECT_EQ(dst.held(), RowSet(0, 5));
}

}  // namespace
}  // namespace dynmpi
