// The array kinds that the model-based tests of the row table
// (row_table_test.cpp) and the replica store (replica_test.cpp) run over:
// dense arrays across the storage block sizes and a sparse matrix, each
// with the helpers either test needs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstring>
#include <map>
#include <vector>

#include "dynmpi/dense_array.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace dynmpi {
namespace {

using Bytes = std::vector<std::byte>;

Bytes random_bytes(Rng& rng, std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::byte>(rng.next_below(256));
    return out;
}

constexpr int kCols = 16;

/// `n` sparse entries of random bytes, padding included, with their column
/// ids then set strictly ascending inside [0, kCols), as unpack requires.
Bytes random_sparse_payload(Rng& rng, std::size_t n) {
    Bytes out = random_bytes(rng, n * sizeof(SparseEntry));
    int col = -1;
    for (std::size_t k = 0; k < n; ++k) {
        col += 1 + static_cast<int>(rng.next_below(3));
        std::memcpy(out.data() + k * sizeof(SparseEntry) +
                        offsetof(SparseEntry, col),
                    &col, sizeof col);
    }
    return out;
}

/// A DenseArray of `Rows` rows of `Elems` doubles.
template <int Rows, int Elems>
struct DenseKind {
    static constexpr int kRows = Rows;
    static constexpr int kElems = Elems;
    using Array = DenseArray;
    using Row = std::vector<double>;

    static Array make(const char* name) {
        return Array(name, kRows, kElems, sizeof(double));
    }
    static Row fresh() { return Row(kElems, 0.0); }
    static Row read(const Array& a, int r) {
        const double* p = a.row_ptr<double>(r);
        return Row(p, p + kElems);
    }
    static Row write(Array& a, int r, Rng& rng) {
        double* p = a.row_ptr<double>(r);
        for (int j = 0; j < kElems; ++j) p[j] = rng.uniform(-1.0, 1.0);
        return read(a, r);
    }
    static void expect_write_rejected(Array& a, int r) {
        EXPECT_THROW(a.row_data(r), Error) << "row " << r;
        EXPECT_THROW(a.at<double>(r, 0), Error) << "row " << r;
        if (r != INT_MAX) {
            EXPECT_THROW(a.span_ptr<double>(r, r + 1), Error) << "row " << r;
        }
    }
    static std::size_t stored(const Row&) { return 0; }
    static std::size_t nnz(const Array&) { return 0; }
    static std::vector<std::byte> canonical(std::vector<std::byte> wire) {
        return wire;
    }
    static void put_payload(WireWriter& out, const Row& row) {
        out.u64(row.size() * sizeof(double));
        out.bytes(row.data(), row.size() * sizeof(double));
    }
    /// One row's payload of random bytes.
    static Bytes payload(Rng& rng) {
        return random_bytes(rng, kElems * sizeof(double));
    }
};

/// 24-byte rows: one 128-row block holds them all.
struct Dense : DenseKind<96, 3> {};
/// One double per row: 512-row blocks, the last one partial.
struct DenseNarrow : DenseKind<1300, 1> {};
/// 64-byte rows: two blocks of 64 rows, the second partial.
struct DenseLine : DenseKind<96, 8> {};
/// 16 KB rows: one block per row, Figure 3's one allocation per row.
struct DenseWide : DenseKind<96, 2048> {};

struct Sparse {
    static constexpr int kRows = 96;
    using Array = SparseMatrix;
    using Row = std::map<int, double>; ///< column → value

    static Array make(const char* name) { return Array(name, kRows, kCols); }
    static Row fresh() { return {}; }
    static Row read(const Array& a, int r) {
        Row row;
        for (const SparseEntry& e : a.row(r)) row.emplace(e.col, e.value);
        EXPECT_EQ(row.size(), a.row(r).size()) << "duplicate column";
        return row;
    }
    static Row write(Array& a, int r, Rng& rng) {
        for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k)
            a.set(r, static_cast<int>(rng.next_below(kCols)),
                  rng.uniform(-1.0, 1.0));
        if (rng.next_below(4) == 0)
            a.erase(r, static_cast<int>(rng.next_below(kCols)));
        return read(a, r);
    }
    static void expect_write_rejected(Array& a, int r) {
        EXPECT_THROW(a.set(r, 0, 1.0), Error) << "row " << r;
        EXPECT_THROW(a.erase(r, 0), Error) << "row " << r;
        EXPECT_THROW(a.get(r, 0), Error) << "row " << r;
    }
    static std::size_t stored(const Row& row) { return row.size(); }
    static std::size_t nnz(const Array& a) {
        return static_cast<std::size_t>(a.nnz());
    }
    /// Zero the padding between an entry's column and value, which the
    /// packer copies verbatim and which therefore holds arbitrary bytes.
    static std::vector<std::byte> canonical(std::vector<std::byte> wire) {
        constexpr auto pad = static_cast<std::ptrdiff_t>(
            offsetof(SparseEntry, col) + sizeof(int));
        constexpr auto pad_end =
            static_cast<std::ptrdiff_t>(offsetof(SparseEntry, value));
        WireReader in(wire);
        for (std::uint32_t n = in.u32(); n > 0; --n) {
            in.u32();
            const std::uint64_t nbytes = in.u64();
            const std::size_t pos = wire.size() - in.remaining();
            for (std::size_t e = pos; e < pos + nbytes;
                 e += sizeof(SparseEntry)) {
                auto at = wire.begin() + static_cast<std::ptrdiff_t>(e);
                std::fill(at + pad, at + pad_end, std::byte{0});
            }
            in.bytes(nbytes);
        }
        return wire;
    }
    static void put_payload(WireWriter& out, const Row& row) {
        out.u64(row.size() * sizeof(SparseEntry));
        for (const auto& [col, value] : row) {
            SparseEntry e{col, value};
            out.bytes(&e, sizeof e);
        }
    }
    /// One row's payload of up to four random entries.
    static Bytes payload(Rng& rng) {
        return random_sparse_payload(rng, rng.next_below(5));
    }
};

}  // namespace
}  // namespace dynmpi
