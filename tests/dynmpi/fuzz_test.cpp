// Failure injection and malformed-input fuzzing.
//
// Every decoder of outside input gets truncated, corrupted and randomized
// input: unpack_rows (redistribution and replica blobs), the bootstrap and
// status control messages, and the fault-script parser.  Each malformed
// input must be rejected with a clean Error — never a crash, never an
// allocation sized by an unchecked count, never silent acceptance of a
// short or overlong buffer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "common/cluster_fixture.hpp"
#include "dynmpi/control_wire.hpp"
#include "dynmpi/dense_array.hpp"
#include "dynmpi/replica.hpp"
#include "dynmpi/runtime.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "sim/fault_plan.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

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

/// Unpacks `bad` into a dense array that already holds rows 4 and 5, and
/// expects a clean rejection that leaves the array unchanged.
void expect_rejected_unchanged(const std::vector<std::byte>& bad) {
    DenseArray dst("A", 8, 4, sizeof(double));
    dst.ensure_rows(RowSet(4, 6));
    for (int j = 0; j < 4; ++j) dst.at<double>(5, j) = 7.0 + j;
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
        expect_rejected_unchanged(bad);
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
    expect_rejected_unchanged(dense);
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

TEST(Fuzz, DenseRecordCountOffByOneRejected) {
    // The strided pass fixes the length from the count: one short and one
    // over both leave a buffer whose length no longer matches.
    for (std::uint32_t count : {3u, 5u}) {
        SCOPED_TRACE(count);
        auto bad = packed_dense(100.0);
        std::memcpy(bad.data(), &count, sizeof count);
        expect_rejected_unchanged(bad);
    }
}

TEST(Fuzz, DenseRecordSizeFieldWrongRejected) {
    // The total length still fits four records; only row 2's size lies.
    for (std::uint64_t size : {0ul, 24ul, 40ul, 64ul}) {
        SCOPED_TRACE(size);
        auto bad = packed_dense(100.0);
        std::memcpy(bad.data() + dense_row_at(2) + 4, &size, sizeof size);
        expect_rejected_unchanged(bad);
    }
}

TEST(Fuzz, DenseLastRowIdAtGlobalRowsRejected) {
    auto bad = packed_dense(100.0);
    const std::uint32_t id = 8; // global_rows of the target arrays
    std::memcpy(bad.data() + dense_row_at(3), &id, sizeof id);
    expect_rejected_unchanged(bad);
}

/// A sparse blob for rows 4 and 5 of a 16-column matrix: row 4 gets one
/// valid new entry, row 5 gets `cols` (value 9.0 each) in the given order.
std::vector<std::byte> sparse_blob(const std::vector<int>& cols) {
    WireWriter out;
    out.u32(2);
    const SparseEntry first{3, 42.0};
    out.u32(4);
    out.u64(sizeof first);
    out.bytes(&first, sizeof first);
    out.u32(5);
    out.u64(cols.size() * sizeof(SparseEntry));
    for (int col : cols) {
        const SparseEntry e{col, 9.0};
        out.bytes(&e, sizeof e);
    }
    return out.take();
}

/// Unpacks `bad` into a 16-column matrix that already holds rows 4 and 5,
/// and expects a clean rejection that leaves the matrix unchanged.
void expect_sparse_rejected_unchanged(const std::vector<std::byte>& bad) {
    SparseMatrix dst("S", 8, 16);
    dst.ensure_rows(RowSet(4, 6));
    dst.set(4, 1, 1.0);
    dst.set(5, 2, 2.0);
    dst.set(5, 7, 3.0);
    const auto before = dst.pack_rows(RowSet(4, 6));
    EXPECT_THROW(dst.unpack_rows(bad), Error);
    EXPECT_EQ(dst.held(), RowSet(4, 6));
    EXPECT_EQ(dst.pack_rows(RowSet(4, 6)), before);
    EXPECT_EQ(dst.get(4, 1), 1.0);
    EXPECT_EQ(dst.get(4, 3), 0.0);
}

TEST(Fuzz, SparseBlobControlIsAccepted) {
    // The blob builder itself frames a valid buffer.
    SparseMatrix dst("S", 8, 16);
    dst.unpack_rows(sparse_blob({0, 6, 15}));
    EXPECT_EQ(dst.get(4, 3), 42.0);
    EXPECT_EQ(dst.row_nnz(5), 3);
    EXPECT_EQ(dst.get(5, 15), 9.0);
}

TEST(Fuzz, SparseColumnOutOfRangeRejected) {
    expect_sparse_rejected_unchanged(sparse_blob({2, 16}));
    expect_sparse_rejected_unchanged(sparse_blob({1000, -7}));
}

TEST(Fuzz, SparseNegativeColumnRejected) {
    expect_sparse_rejected_unchanged(sparse_blob({-7}));
    expect_sparse_rejected_unchanged(sparse_blob({-1, 3}));
}

TEST(Fuzz, SparseDuplicateColumnRejected) {
    expect_sparse_rejected_unchanged(sparse_blob({4, 4}));
    expect_sparse_rejected_unchanged(sparse_blob({0, 5, 5, 9}));
}

TEST(Fuzz, SparseDescendingColumnsRejected) {
    expect_sparse_rejected_unchanged(sparse_blob({9, 3}));
    expect_sparse_rejected_unchanged(sparse_blob({0, 8, 7, 12}));
}

TEST(Fuzz, RandomBuffersNeverCrash) {
    Rng rng(31337);
    int rejected = 0, accepted = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::byte> junk(rng.next_below(96));
        for (auto& b : junk)
            b = static_cast<std::byte>(rng.next_below(256));
        DenseArray d("A", 8, 4, sizeof(double));
        SparseMatrix s("S", 8, 16);
        try {
            d.unpack_rows(junk);
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
        try {
            dst.unpack_rows(mutated);
            // If accepted, the array must be internally consistent: every
            // held row readable.
            for (int r : dst.held().to_vector())
                (void)dst.row_data(r);
        } catch (const Error&) {
            // Clean rejection is fine.
        }
    }
    SUCCEED();
}

// ---------------------------------------------------------------------------
// Control messages: the leader's load snapshot, bootstrap and per-cycle
// status
// ---------------------------------------------------------------------------

constexpr int kWorld = 4;
constexpr int kRows = 6;

LoadSnapshot sample_snapshot() {
    return LoadSnapshot{.loads = {0.0, 2.5, 0.25, 1.0},
                        .quarantined = {0, 0, 1, 0},
                        .joinable = {1, 1, 1, 0}};
}

Bootstrap sample_bootstrap() {
    Bootstrap b;
    b.next_cycle = 41;
    b.redist_seq = 7;
    b.sendout_seq = 1234;
    b.active = {0, 2, 3};
    b.baseline_loads = {0.0, 1.5, 0.25, 3.0};
    b.speeds = {1.0, 2.0, 0.5, 1.25};
    b.memories = {0.0, 1e9, 2e9, 0.0};
    b.quarantined = {0, 1, 0, 0};
    b.comm_costs = CommCosts{1e-4, 1.25e7, 5e-5, 2e-9};
    b.group_seqs = {{0xABCDULL, 3}, {~0ULL, 99}};
    return b;
}

Status sample_steady() {
    Status s;
    s.active = {1, 3};
    return s;
}

Status sample_readd() {
    Status s;
    s.readd = true;
    s.old_active = {0, 2, 3};
    s.old_counts = {2, 2, 2};
    s.active = {0, 1, 2, 3};
    s.counts = {1, 2, 2, 1};
    s.redist_seq = 5;
    s.row_costs = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
    s.loads = {0.0, 0.0, 1.0, 0.0};
    s.quarantined = {0, 0, 0, 1};
    return s;
}

void expect_same(const Bootstrap& a, const Bootstrap& b) {
    EXPECT_EQ(a.next_cycle, b.next_cycle);
    EXPECT_EQ(a.redist_seq, b.redist_seq);
    EXPECT_EQ(a.sendout_seq, b.sendout_seq);
    EXPECT_EQ(a.active, b.active);
    EXPECT_EQ(a.baseline_loads, b.baseline_loads);
    EXPECT_EQ(a.speeds, b.speeds);
    EXPECT_EQ(a.memories, b.memories);
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.comm_costs.latency_s, b.comm_costs.latency_s);
    EXPECT_EQ(a.comm_costs.bandwidth_Bps, b.comm_costs.bandwidth_Bps);
    EXPECT_EQ(a.comm_costs.cpu_per_msg_s, b.comm_costs.cpu_per_msg_s);
    EXPECT_EQ(a.comm_costs.cpu_per_byte_s, b.comm_costs.cpu_per_byte_s);
    EXPECT_EQ(a.group_seqs, b.group_seqs);
}

void expect_same(const Status& a, const Status& b) {
    EXPECT_EQ(a.readd, b.readd);
    EXPECT_EQ(a.active, b.active);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.old_active, b.old_active);
    EXPECT_EQ(a.old_counts, b.old_counts);
    EXPECT_EQ(a.redist_seq, b.redist_seq);
    EXPECT_EQ(a.row_costs, b.row_costs);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.quarantined, b.quarantined);
}

LoadSnapshot decode_ls(const std::vector<std::byte>& bytes) {
    return decode_load_snapshot(bytes, kWorld);
}
Bootstrap decode_b(const std::vector<std::byte>& bytes) {
    return decode_bootstrap(bytes, kWorld);
}
Status decode_s(const std::vector<std::byte>& bytes) {
    return decode_status(bytes, kWorld, kRows);
}

/// Overwrites the 8-byte field at `field` (in 8-byte units) of `bytes`.
std::vector<std::byte> with_field(std::vector<std::byte> bytes,
                                  std::size_t field, std::uint64_t v) {
    std::memcpy(bytes.data() + 8 * field, &v, sizeof v);
    return bytes;
}

TEST(ControlWire, BootstrapRoundTripsAtItsFixedSize) {
    const Bootstrap b = sample_bootstrap();
    const auto bytes = encode(b);
    // 8 bytes a field: three sequence numbers, the active count and ids, four
    // per world rank, four comm costs, the seq count and two per pair.
    EXPECT_EQ(bytes.size(), 8u * (3 + 1 + 3 + 4 * kWorld + 4 + 1 + 2 * 2));
    expect_same(decode_b(bytes), b);
    // A world with nothing replicated yet still frames exactly.
    Bootstrap empty = b;
    empty.group_seqs.clear();
    expect_same(decode_b(encode(empty)), empty);
}

TEST(ControlWire, LoadSnapshotRoundTripsAtItsFixedSize) {
    const LoadSnapshot s = sample_snapshot();
    const auto bytes = encode(s);
    // A load, a quarantine flag and a joinable flag per world rank.
    EXPECT_EQ(bytes.size(), 24u * kWorld);
    const LoadSnapshot d = decode_ls(bytes);
    EXPECT_EQ(d.loads, s.loads);
    EXPECT_EQ(d.quarantined, s.quarantined);
    EXPECT_EQ(d.joinable, s.joinable);
}

TEST(ControlWire, StatusRoundTripsAtItsFixedSize) {
    const Status steady = sample_steady();
    const auto sb = encode(steady);
    EXPECT_EQ(sb.size(), 8u * (1 + 1 + 2)); // kind, count, ids
    expect_same(decode_s(sb), steady);
    const Status readd = sample_readd();
    const auto rb = encode(readd);
    // kind, old count + ids + counts, new count + ids + counts, seq, one
    // cost per row, then a load and a flag per world rank.
    EXPECT_EQ(rb.size(),
              8u * (1 + 1 + 2 * 3 + 1 + 2 * 4 + 1 + kRows + 2 * kWorld));
    expect_same(decode_s(rb), readd);
}

TEST(ControlWire, IntegersTravelAsU64) {
    // The kind, counts and ids are 8-byte integers on the wire, not doubles.
    const auto rb = encode(sample_readd());
    WireReader r(rb);
    EXPECT_EQ(r.u64(), 1u); // re-add
    EXPECT_EQ(r.u64(), 3u); // old member count
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u64(), 2u);
    EXPECT_EQ(r.u64(), 3u);
}

/// Every strict prefix of `good` is rejected with a clean Error.
void expect_truncations_rejected(
    const std::vector<std::byte>& good,
    const std::function<void(const std::vector<std::byte>&)>& decode) {
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        SCOPED_TRACE(cut);
        const std::vector<std::byte> bad(
            good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_THROW(decode(bad), Error);
    }
}

TEST(Fuzz, ControlMessagesTruncatedAtEveryByteRejected) {
    expect_truncations_rejected(encode(sample_snapshot()),
                                [](const auto& b) { decode_ls(b); });
    expect_truncations_rejected(encode(sample_bootstrap()),
                                [](const auto& b) { decode_b(b); });
    expect_truncations_rejected(encode(sample_steady()),
                                [](const auto& b) { decode_s(b); });
    expect_truncations_rejected(encode(sample_readd()),
                                [](const auto& b) { decode_s(b); });
}

TEST(Fuzz, ControlMessagesTrailingBytesRejected) {
    for (std::size_t extra : {1u, 8u}) {
        SCOPED_TRACE(extra);
        auto l = encode(sample_snapshot());
        l.resize(l.size() + extra);
        EXPECT_THROW(decode_ls(l), Error);
        auto b = encode(sample_bootstrap());
        b.resize(b.size() + extra);
        EXPECT_THROW(decode_b(b), Error);
        for (const Status& st : {sample_steady(), sample_readd()}) {
            auto s = encode(st);
            s.resize(s.size() + extra);
            EXPECT_THROW(decode_s(s), Error);
        }
    }
}

TEST(Fuzz, ControlMessagesHugeCountsRejectedBeforeAllocating) {
    // A count must not size anything before it is checked against the
    // bytes left, whether it is near 2^64 or merely larger than the message.
    for (std::uint64_t huge :
         {~std::uint64_t{0}, std::uint64_t{1} << 61, std::uint64_t{1000}}) {
        SCOPED_TRACE(huge);
        const auto b = encode(sample_bootstrap());
        EXPECT_THROW(decode_b(with_field(b, 3, huge)), Error); // active
        // The group-seq count follows the ids, the world and the costs.
        EXPECT_THROW(decode_b(with_field(b, 3 + 1 + 3 + 4 * kWorld + 4, huge)),
                     Error);
        EXPECT_THROW(decode_s(with_field(encode(sample_steady()), 1, huge)),
                     Error);
        const auto r = encode(sample_readd());
        EXPECT_THROW(decode_s(with_field(r, 1, huge)), Error); // old layout
        EXPECT_THROW(decode_s(with_field(r, 8, huge)), Error); // new layout
    }
}

TEST(Fuzz, ControlMessagesOutOfRangeValuesRejected) {
    for (std::uint64_t bad : {std::uint64_t{kWorld}, std::uint64_t{1} << 40,
                              ~std::uint64_t{0}}) {
        SCOPED_TRACE(bad);
        // Member ids outside [0, world).
        EXPECT_THROW(decode_b(with_field(encode(sample_bootstrap()), 5, bad)),
                     Error);
        EXPECT_THROW(decode_s(with_field(encode(sample_steady()), 3, bad)),
                     Error);
        const auto r = encode(sample_readd());
        EXPECT_THROW(decode_s(with_field(r, 2, bad)), Error);  // old id
        EXPECT_THROW(decode_s(with_field(r, 11, bad)), Error); // new id
    }
    const auto r = encode(sample_readd());
    // A block count beyond the row space, a status kind past re-add and a
    // quarantine flag that is neither 0 nor 1.
    EXPECT_THROW(decode_s(with_field(r, 5, kRows + 1)), Error);
    EXPECT_THROW(decode_s(with_field(r, 0, 2)), Error);
    EXPECT_THROW(decode_s(with_field(r, r.size() / 8 - 1, 2)), Error);
    EXPECT_THROW(decode_b(with_field(encode(sample_bootstrap()), 10, 2)),
                 Error);
    // A snapshot load that is negative or not finite, and a quarantine or
    // joinable flag that is neither 0 nor 1.
    const auto l = encode(sample_snapshot());
    for (double bad : {-0.5, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        std::uint64_t bits;
        std::memcpy(&bits, &bad, sizeof bits);
        EXPECT_THROW(decode_ls(with_field(l, 1, bits)), Error);
    }
    EXPECT_THROW(decode_ls(with_field(l, kWorld + 2, 2)), Error);
    EXPECT_THROW(decode_ls(with_field(l, 2 * kWorld, 2)), Error);
}

TEST(Fuzz, ControlMessagesRandomMutationsDecodeCleanly) {
    Rng rng(8086);
    const std::vector<std::byte> goods[] = {
        encode(sample_bootstrap()), encode(sample_steady()),
        encode(sample_readd()), encode(sample_snapshot())};
    int rejected = 0;
    for (int trial = 0; trial < 800; ++trial) {
        const auto& good = goods[trial % 4];
        auto bad = good;
        for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k)
            bad[rng.next_below(bad.size())] =
                static_cast<std::byte>(rng.next_below(256));
        try {
            if (trial % 4 == 0) {
                const Bootstrap b = decode_b(bad);
                for (int m : b.active) EXPECT_TRUE(m >= 0 && m < kWorld);
                EXPECT_EQ(b.speeds.size(), static_cast<std::size_t>(kWorld));
            } else if (trial % 4 == 3) {
                const LoadSnapshot s = decode_ls(bad);
                for (double l : s.loads)
                    EXPECT_TRUE(std::isfinite(l) && l >= 0.0);
                for (char q : s.quarantined) EXPECT_TRUE(q == 0 || q == 1);
            } else {
                const Status s = decode_s(bad);
                for (int m : s.active) EXPECT_TRUE(m >= 0 && m < kWorld);
                for (int m : s.old_active) EXPECT_TRUE(m >= 0 && m < kWorld);
                for (int c : s.counts) EXPECT_TRUE(c >= 0 && c <= kRows);
            }
        } catch (const Error&) {
            ++rejected;
        }
    }
    // Most mutations hit a count, an id, a flag or the kind and are caught;
    // the rest change a real or a sequence number and decode.
    EXPECT_GT(rejected, 0);
}

TEST(Fuzz, FaultScriptMutationsParseOrThrowError) {
    const std::string good =
        "crash node=2 t=1.5\n"
        "slow node=0 t=0.5 dur=2 factor=0.25   # brown-out\n"
        "lose-sends node=3 t=6 count=4\n"
        "revive node=2 t=3\n";
    ASSERT_EQ(sim::FaultPlan::parse(good).faults.size(), 4u);
    const std::string alphabet = "=.#-+e \n0123456789nodetcunfilasxr";
    Rng rng(1969);
    int rejected = 0, accepted = 0;
    for (int trial = 0; trial < 1000; ++trial) {
        std::string text = good;
        if (trial % 4 == 0) text.resize(rng.next_below(text.size()));
        for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
            const auto at = rng.next_below(text.size() + 1);
            const char c = rng.next_below(2) == 0
                               ? alphabet[rng.next_below(alphabet.size())]
                               : static_cast<char>(rng.next_below(256));
            if (at == text.size())
                text.push_back(c);
            else
                text[at] = c;
        }
        try {
            const sim::FaultPlan plan = sim::FaultPlan::parse(text);
            // Whatever parses renders back to a script that parses the same.
            EXPECT_EQ(sim::FaultPlan::parse(plan.to_string()).faults.size(),
                      plan.faults.size());
            ++accepted;
        } catch (const Error&) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 0);
    // Numbers that do not fit their field are errors, not undefined casts.
    for (const char* bad : {"crash node=1e10 t=1\n", "crash node=2 t=nan\n",
                            "lose-sends node=1 t=0 count=-3e9\n",
                            "crash node=inf t=1\n"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(sim::FaultPlan::parse(bad), Error);
    }
}

// ---------------------------------------------------------------------------
// Failure injection in the SPMD machine
// ---------------------------------------------------------------------------

TEST(Fuzz, RankFailureMidCollectiveUnwindsCleanly) {
    msg::Machine m(quiet_cluster(4));
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
    msg::Machine m(quiet_cluster(2));
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
