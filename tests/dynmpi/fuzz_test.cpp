// Failure injection and malformed-input fuzzing.
//
// Redistribution trusts wire payloads produced by pack_rows; these tests
// feed truncated, corrupted, and randomized buffers into unpack_rows and
// assert that every malformed input is rejected with a clean Error — never
// a crash, never silent acceptance of a short buffer.
#include <gtest/gtest.h>

#include <cstring>

#include "dynmpi/dense_array.hpp"
#include "dynmpi/replica.hpp"
#include "dynmpi/runtime.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

std::vector<std::byte> packed_dense(double offset = 0.0) {
    DenseArray a("A", 8, 4, sizeof(double));
    a.ensure_rows(RowSet(0, 4));
    for (int r = 0; r < 4; ++r)
        for (int j = 0; j < 4; ++j) a.at<double>(r, j) = offset + r + j;
    return a.pack_rows(RowSet(0, 4));
}

// Byte offset of row k's header in a packed_dense() blob: a u32 row count,
// then per row a 12-byte header and four doubles.
constexpr std::size_t dense_row_at(std::size_t k) { return 4 + k * (12 + 32); }

std::vector<std::byte> packed_sparse() {
    SparseMatrix m("S", 8, 16);
    m.ensure_rows(RowSet(0, 4));
    for (int r = 0; r < 4; ++r) m.set(r, (r * 3) % 16, 1.5 * r);
    return m.pack_rows(RowSet(0, 4));
}

/// Unpacks `bad` into a dense array of type ArrayT that already holds rows
/// 4 and 5, and expects a clean rejection that leaves the array unchanged.
template <typename ArrayT>
void expect_rejected_unchanged(const std::vector<std::byte>& bad) {
    ArrayT dst("A", 8, 4, sizeof(double));
    dst.ensure_rows(RowSet(4, 6));
    for (int j = 0; j < 4; ++j) dst.template at<double>(5, j) = 7.0 + j;
    const auto before = dst.pack_rows(RowSet(4, 6));
    EXPECT_THROW(dst.unpack_rows(bad), Error);
    EXPECT_EQ(dst.held(), RowSet(4, 6));
    EXPECT_EQ(dst.pack_rows(RowSet(4, 6)), before);
}

TEST(Fuzz, TruncatedDenseBufferRejected) {
    auto good = packed_dense();
    for (std::size_t cut : {0ul, 2ul, 5ul, 17ul, 40ul, good.size() - 8}) {
        if (cut >= good.size()) continue;
        SCOPED_TRACE(cut);
        std::vector<std::byte> bad(good.begin(),
                                   good.begin() + (std::ptrdiff_t)cut);
        expect_rejected_unchanged<DenseArray>(bad);
        expect_rejected_unchanged<ContiguousDenseArray>(bad);
    }
}

TEST(Fuzz, HugeRowLengthRejected) {
    // A payload length near 2^64 must not wrap the bounds check.
    auto good = packed_sparse();
    std::uint64_t huge = ~std::uint64_t{0} - 15; // a whole number of entries
    std::memcpy(good.data() + 8, &huge, sizeof huge);
    SparseMatrix dst("S", 8, 16);
    EXPECT_THROW(dst.unpack_rows(good), Error);
    auto dense = packed_dense();
    std::memcpy(dense.data() + 8, &huge, sizeof huge);
    expect_rejected_unchanged<DenseArray>(dense);
    expect_rejected_unchanged<ContiguousDenseArray>(dense);
    DenseArray like("A", 8, 4, sizeof(double));
    ReplicaStore store({&like});
    EXPECT_THROW(store.store_blob(0, dense), Error);
}

/// Feeds `bad` to a replica store that holds rows 0-3 of packed_dense() and
/// expects a clean rejection that leaves every stored copy unchanged.
void expect_store_rejects_unchanged(const std::vector<std::byte>& bad) {
    DenseArray like("A", 8, 4, sizeof(double));
    ReplicaStore store({&like});
    store.store_blob(0, packed_dense());
    const auto before = store.extract(0, RowSet(0, 8));
    EXPECT_THROW(store.store_blob(0, bad), Error);
    EXPECT_EQ(store.extract(0, RowSet(0, 8)), before);
}

TEST(Fuzz, ReplicaStoreRejectsTruncatedBlobWhole) {
    // New contents for rows 0-3, cut inside row 1: row 0 is complete, so a
    // store that applied rows as it parsed them would overwrite it.
    auto bad = packed_dense(100.0);
    bad.resize(dense_row_at(1) + 20);
    expect_store_rejects_unchanged(bad);
}

TEST(Fuzz, ReplicaStoreRejectsOutOfRangeRowId) {
    // 8 is one past the last row; the others cast to negative ints.
    for (std::uint32_t id : {8u, 0xFFFFFFFFu, 0x80000000u}) {
        SCOPED_TRACE(id);
        auto bad = packed_dense(100.0);
        std::memcpy(bad.data() + dense_row_at(2), &id, sizeof id);
        expect_store_rejects_unchanged(bad);
    }
}

TEST(Fuzz, TruncatedSparseBufferRejected) {
    auto good = packed_sparse();
    for (std::size_t frac : {1u, 3u, 7u}) {
        std::vector<std::byte> bad(
            good.begin(), good.begin() + (std::ptrdiff_t)(good.size() * frac / 8));
        SparseMatrix dst("S", 8, 16);
        EXPECT_THROW(dst.unpack_rows(bad), Error) << "frac=" << frac;
    }
}

TEST(Fuzz, WrongRowSizeRejected) {
    auto good = packed_dense();
    DenseArray narrow("A", 8, 2, sizeof(double)); // rows half the size
    EXPECT_THROW(narrow.unpack_rows(good), Error);
}

TEST(Fuzz, SparsePayloadNotEntireEntriesRejected) {
    auto good = packed_sparse();
    // Corrupt a row's byte-length field to a non-multiple of the entry size.
    // Layout: u32 nrows, then u32 row_id, u64 nbytes, ...
    std::uint64_t bogus = 13;
    std::memcpy(good.data() + 8, &bogus, sizeof bogus);
    SparseMatrix dst("S", 8, 16);
    EXPECT_THROW(dst.unpack_rows(good), Error);
}

TEST(Fuzz, RandomBuffersNeverCrash) {
    Rng rng(31337);
    int rejected = 0, accepted = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::byte> junk(rng.next_below(96));
        for (auto& b : junk)
            b = static_cast<std::byte>(rng.next_below(256));
        DenseArray d("A", 8, 4, sizeof(double));
        ContiguousDenseArray c("C", 8, 4, sizeof(double));
        SparseMatrix s("S", 8, 16);
        try {
            d.unpack_rows(junk);
            ++accepted;
        } catch (const Error&) {
            ++rejected;
        }
        try {
            c.unpack_rows(junk);
            ++accepted;
        } catch (const Error&) {
            ++rejected;
        }
        try {
            s.unpack_rows(junk);
            ++accepted;
        } catch (const Error&) {
            ++rejected;
        }
    }
    // Random junk should essentially never validate (a zero-row header is
    // the only trivially-valid input).
    EXPECT_GT(rejected, 450);
    (void)accepted;
}

TEST(Fuzz, MutatedValidBufferEitherRejectedOrConsistent) {
    Rng rng(2718);
    auto good = packed_dense();
    for (int trial = 0; trial < 200; ++trial) {
        auto mutated = good;
        std::size_t pos = rng.next_below(mutated.size());
        mutated[pos] = static_cast<std::byte>(rng.next_below(256));
        DenseArray dst("A", 8, 4, sizeof(double));
        ContiguousDenseArray cdst("C", 8, 4, sizeof(double));
        try {
            dst.unpack_rows(mutated);
            // If accepted, the array must be internally consistent: every
            // held row readable.
            for (int r : dst.held().to_vector())
                (void)dst.row_data(r);
        } catch (const Error&) {
            // Clean rejection is fine.
        }
        try {
            cdst.unpack_rows(mutated);
            for (int r : cdst.held().to_vector())
                (void)cdst.row_data(r);
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
    SUCCEED();
}

// ---------------------------------------------------------------------------
// Failure injection in the SPMD machine
// ---------------------------------------------------------------------------

TEST(Fuzz, RankFailureMidCollectiveUnwindsCleanly) {
    msg::Machine m([] {
        sim::ClusterConfig c;
        c.num_nodes = 4;
        c.cpu.jitter_frac = 0.0;
        return c;
    }());
    EXPECT_THROW(m.run([](msg::Rank& r) {
        msg::Group g = msg::Group::world(r);
        msg::barrier(r, g);
        if (r.id() == 2) throw std::runtime_error("injected fault");
        // The others head into a collective that can never complete.
        msg::allreduce_scalar(r, g, 1.0, msg::OpSum{});
    }),
                 std::runtime_error);
}

TEST(Fuzz, RuntimeMisuseAfterCommitRejected) {
    msg::Machine m([] {
        sim::ClusterConfig c;
        c.num_nodes = 2;
        c.cpu.jitter_frac = 0.0;
        return c;
    }());
    EXPECT_THROW(m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 16, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.register_dense("B", 1, sizeof(double)); // too late
    }),
                 Error);
}

}  // namespace
}  // namespace dynmpi
