// The Figure 3 contiguous baseline (bench/contiguous_dense_array.hpp): its
// re-extent copies, its wire compatibility with DenseArray, and the
// malformed-input rejections that fuzz_test.cpp gives the library's arrays.
#include "bench/contiguous_dense_array.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "dynmpi/dense_array.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

TEST(ContiguousDenseArray, GrowthCopiesSurvivors) {
    ContiguousDenseArray a("A", 1000, 64, sizeof(double));
    a.ensure_rows(RowSet(0, 100));
    a.at<double>(10, 3) = 42.0;
    a.ensure_rows(RowSet(100, 900)); // re-extent to [0,900): full copy
    EXPECT_GT(a.stats().bytes_copied, 0u);
    EXPECT_DOUBLE_EQ(a.at<double>(10, 3), 42.0);
    EXPECT_GE(a.stats().reallocations, 2u);
}

TEST(ContiguousDenseArray, ShiftOnFrontExtension) {
    ContiguousDenseArray a("A", 100, 2, sizeof(double));
    a.ensure_rows(RowSet(50, 60));
    a.at<double>(55, 0) = 7.0;
    std::uint64_t copied_before = a.stats().bytes_copied;
    a.ensure_rows(RowSet(40, 50)); // extend at the front: everything shifts
    EXPECT_GT(a.stats().bytes_copied, copied_before);
    EXPECT_DOUBLE_EQ(a.at<double>(55, 0), 7.0);
}

TEST(ContiguousDenseArray, PackUnpackCompatibleWithProjection) {
    // Both implementations share the wire format.
    DenseArray src("A", 16, 4, sizeof(double));
    src.ensure_rows(RowSet(2, 6));
    for (int r = 2; r < 6; ++r)
        for (int j = 0; j < 4; ++j) src.at<double>(r, j) = r + 0.25 * j;

    ContiguousDenseArray dst("A", 16, 4, sizeof(double));
    dst.unpack_rows(src.pack_rows(RowSet(2, 6)));
    EXPECT_DOUBLE_EQ(dst.at<double>(3, 2), 3.5);
}

TEST(ContiguousDenseArray, DropShrinksToHeldSpan) {
    ContiguousDenseArray a("A", 100, 2, sizeof(double));
    a.ensure_rows(RowSet(0, 50));
    a.at<double>(30, 1) = 9.0;
    a.drop_rows(RowSet(0, 20));
    EXPECT_EQ(a.held(), RowSet(20, 50));
    EXPECT_DOUBLE_EQ(a.at<double>(30, 1), 9.0);
    EXPECT_THROW(a.row_data(5), Error);
}

/// Rows 0-3 of an 8 x 4-double array, packed: a u32 row count, then per
/// row a 12-byte header and four doubles.
std::vector<std::byte> packed_rows() {
    ContiguousDenseArray a("A", 8, 4, sizeof(double));
    a.ensure_rows(RowSet(0, 4));
    for (int r = 0; r < 4; ++r)
        for (int j = 0; j < 4; ++j) a.at<double>(r, j) = r + j;
    return a.pack_rows(RowSet(0, 4));
}

constexpr std::size_t row_at(std::size_t k) { return 4 + k * (12 + 32); }

template <typename T>
std::vector<std::byte> with_field(std::size_t at, T value) {
    auto bad = packed_rows();
    std::memcpy(bad.data() + at, &value, sizeof value);
    return bad;
}

TEST(Fuzz, ContiguousMalformedBufferRejectedUnchanged) {
    std::vector<std::vector<std::byte>> bad;
    const auto good = packed_rows();
    for (std::size_t cut : {0ul, 2ul, 5ul, 17ul, 40ul, good.size() - 8})
        bad.emplace_back(good.begin(), good.begin() + (std::ptrdiff_t)cut);
    bad.push_back(with_field(8, ~std::uint64_t{0} - 15)); // huge length
    for (std::uint32_t count : {3u, 5u}) bad.push_back(with_field(0, count));
    for (std::uint64_t size : {0ul, 24ul, 40ul, 64ul})
        bad.push_back(with_field(row_at(2) + 4, size));
    bad.push_back(with_field(row_at(3), std::uint32_t{8})); // global_rows
    for (const auto& buf : bad) {
        SCOPED_TRACE(buf.size());
        ContiguousDenseArray dst("A", 8, 4, sizeof(double));
        dst.ensure_rows(RowSet(4, 6));
        for (int j = 0; j < 4; ++j) dst.at<double>(5, j) = 7.0 + j;
        const auto before = dst.pack_rows(RowSet(4, 6));
        EXPECT_THROW(dst.unpack_rows(buf), Error);
        EXPECT_EQ(dst.held(), RowSet(4, 6));
        EXPECT_EQ(dst.pack_rows(RowSet(4, 6)), before);
    }
}

TEST(Fuzz, ContiguousRandomBuffersRejectedOrConsistent) {
    Rng rng(31337);
    int rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::byte> junk(rng.next_below(96));
        for (auto& b : junk)
            b = static_cast<std::byte>(rng.next_below(256));
        ContiguousDenseArray c("C", 8, 4, sizeof(double));
        try {
            c.unpack_rows(junk);
        } catch (const Error&) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 150);

    // One mutated byte: a clean rejection leaves the array empty; an
    // accepted buffer leaves every held row readable and the buffer
    // spanning exactly the held extent.
    Rng mut(2718);
    const auto good = packed_rows();
    for (int trial = 0; trial < 200; ++trial) {
        auto mutated = good;
        std::size_t pos = mut.next_below(mutated.size());
        mutated[pos] = static_cast<std::byte>(mut.next_below(256));
        ContiguousDenseArray cdst("C", 8, 4, sizeof(double));
        try {
            cdst.unpack_rows(mutated);
            for (int r : cdst.held().to_vector()) (void)cdst.row_data(r);
            EXPECT_EQ(cdst.local_bytes(),
                      cdst.held().empty()
                          ? 0u
                          : static_cast<std::size_t>(cdst.held().last() -
                                                     cdst.held().first() + 1) *
                                cdst.row_bytes());
        } catch (const Error&) {
            EXPECT_TRUE(cdst.held().empty());
            EXPECT_EQ(cdst.local_bytes(), 0u);
        }
    }
}

}  // namespace
}  // namespace dynmpi
