// Model-based tests of the buddy replica store (docs/FAULTS.md "Crashes").
//
// Seeded random sequences of delta store_blob, wholesale store_blob +
// retain_only, extract over sets that include absent rows, and clear run
// against a ReplicaStore shadowing a dense or a sparse array, and against a
// std::map model of the store's contract: each row id maps to the payload
// bytes last shipped for it, and extract frames the present rows of the
// requested set in ascending order.  extract must match the model's framing
// byte for byte (payloads are random bytes, padding included; sparse column
// ids are valid and ascending, since unpack rejects any other), and the rows
// store_blob reports must be exactly the rows the blob framed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "array_kinds.hpp"
#include "dynmpi/replica.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace dynmpi {
namespace {

/// The row ids the tests draw from: the kinds' arrays have more rows.
constexpr int kDrawRows = 64;
constexpr int kElems = 3;

/// Up to 12 distinct rows drawn from [0, kDrawRows), ascending.
std::vector<int> random_rows(Rng& rng) {
    std::vector<int> rows;
    for (std::uint64_t k = rng.next_below(13); k > 0; --k)
        rows.push_back(static_cast<int>(rng.next_below(kDrawRows)));
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows;
}

RowSet as_set(const std::vector<int>& rows) {
    RowSet s;
    for (int r : rows) s.add(r, r + 1);
    return s;
}

using StoreModel = std::map<int, Bytes>;

/// Pack-format framing of `rows` with the given payloads.
Bytes frame(const std::vector<int>& rows, const std::vector<Bytes>& payloads) {
    WireWriter out;
    out.u32(static_cast<std::uint32_t>(rows.size()));
    for (std::size_t k = 0; k < rows.size(); ++k) {
        out.u32(static_cast<std::uint32_t>(rows[k]));
        out.u64(payloads[k].size());
        out.bytes(payloads[k].data(), payloads[k].size());
    }
    return out.take();
}

/// The model's extract: the present rows of `rows`, ascending.
Bytes model_extract(const StoreModel& model, const RowSet& rows) {
    std::vector<int> present;
    std::vector<Bytes> payloads;
    for (const auto& [r, payload] : model)
        if (rows.contains(r)) {
            present.push_back(r);
            payloads.push_back(payload);
        }
    return frame(present, payloads);
}

template <typename T>
class ReplicaModel : public ::testing::Test {};
using Kinds = ::testing::Types<Dense, Sparse>;
TYPED_TEST_SUITE(ReplicaModel, Kinds);

TYPED_TEST(ReplicaModel, RandomSequencesMatchMapModel) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed * 7919);
        const auto like = TypeParam::make("r");
        ReplicaStore store({&like});
        StoreModel model;
        for (int step = 0; step < 200; ++step) {
            const std::uint64_t op = rng.next_below(10);
            if (op < 6) {
                // Delta (op < 4) or wholesale refresh.  A few delta blobs
                // frame their rows in descending order.
                std::vector<int> rows = random_rows(rng);
                if (op == 0) std::reverse(rows.begin(), rows.end());
                std::vector<Bytes> payloads;
                for (std::size_t k = 0; k < rows.size(); ++k)
                    payloads.push_back(TypeParam::payload(rng));
                const RowSet stored =
                    store.store_blob(0, frame(rows, payloads));
                ASSERT_EQ(stored, as_set(rows)) << "step " << step;
                for (std::size_t k = 0; k < rows.size(); ++k)
                    model[rows[k]] = payloads[k];
                if (op >= 4) {
                    store.retain_only(0, stored);
                    std::erase_if(model, [&](const auto& kv) {
                        return !stored.contains(kv.first);
                    });
                }
            } else if (op < 9) {
                // Extract a random range: rows the store never saw, or has
                // dropped, are skipped.
                const int lo = static_cast<int>(rng.next_below(kDrawRows));
                const int hi =
                    lo + static_cast<int>(rng.next_below(kDrawRows - lo + 1));
                RowSet rows(lo, hi);
                if (rng.next_below(2) == 0) rows = as_set(random_rows(rng));
                ASSERT_EQ(store.extract(0, rows), model_extract(model, rows))
                    << "step " << step;
            } else {
                store.clear();
                model.clear();
            }
        }
        EXPECT_EQ(store.extract(0, RowSet(0, kDrawRows)),
                  model_extract(model, RowSet(0, kDrawRows)));
    }
}

// Extracted copies restore into a live array exactly: the adopter unpacks
// what the buddy re-packed and gets the rows the owner shipped.
TYPED_TEST(ReplicaModel, ExtractRestoresThroughUnpack) {
    Rng rng(4242);
    const auto like = TypeParam::make("r");
    ReplicaStore store({&like});
    const std::vector<int> rows = {3, 4, 5, 9, 20, 21};
    std::vector<Bytes> payloads;
    for (std::size_t k = 0; k < rows.size(); ++k)
        payloads.push_back(TypeParam::payload(rng));
    const Bytes blob = frame(rows, payloads);
    store.store_blob(0, blob);

    auto adopter = TypeParam::make("r");
    const Bytes restored = store.extract(0, RowSet(0, kDrawRows));
    EXPECT_EQ(restored, blob);
    EXPECT_EQ(adopter.unpack_rows(restored), as_set(rows));
    EXPECT_EQ(adopter.held(), as_set(rows));
    EXPECT_EQ(adopter.pack_rows(adopter.held()), blob);
}

TEST(ReplicaStore, ShadowsEveryArrayInOrder) {
    DenseArray d("d", kDrawRows, kElems, sizeof(double));
    SparseMatrix s("s", kDrawRows, kCols);
    ReplicaStore store({&d, &s});
    Rng rng(99);
    const Bytes dense_blob = frame({1, 2}, {random_bytes(rng, 24),
                                            random_bytes(rng, 24)});
    const Bytes sparse_blob = frame({7}, {random_sparse_payload(rng, 2)});
    EXPECT_EQ(store.store_blob(0, dense_blob), RowSet(1, 3));
    EXPECT_EQ(store.store_blob(1, sparse_blob), RowSet(7, 8));
    // A dense payload of the wrong size does not fit array 0's shape.
    EXPECT_THROW(store.store_blob(0, sparse_blob), Error);
    EXPECT_THROW(store.store_blob(2, dense_blob), Error);
    EXPECT_EQ(store.extract(0, RowSet(0, kDrawRows)), dense_blob);
    EXPECT_EQ(store.extract(1, RowSet(0, kDrawRows)), sparse_blob);
    store.clear();
    EXPECT_EQ(store.extract(0, RowSet(0, kDrawRows)), frame({}, {}));
    EXPECT_EQ(store.extract(1, RowSet(0, kDrawRows)), frame({}, {}));
}

}  // namespace
}  // namespace dynmpi
