#include "dynmpi/replica.hpp"

#include <iterator>

#include "dynmpi/dist_array.hpp"
#include "support/error.hpp"

namespace dynmpi {

ReplicaStore::ReplicaStore(std::size_t num_arrays) : rows_(num_arrays) {}

// dynmpi-lint: repair-critical
RowSet ReplicaStore::store_blob(std::size_t array_idx,
                                const std::vector<std::byte>& blob) {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    auto& store = rows_[array_idx];
    RowSet stored;
    std::size_t pos = 0;
    std::uint32_t nrows = DistArray::get_u32(blob, pos);
    // Packed rows arrive ascending, so each row's slot sits at or right
    // after the previous one: a moving hint makes the walk one pass over
    // the map.  Out-of-order rows just fall back to a full lookup.
    auto hint = store.begin();
    for (std::uint32_t i = 0; i < nrows; ++i) {
        int row = static_cast<int>(DistArray::get_u32(blob, pos));
        std::uint64_t nbytes = DistArray::get_u64(blob, pos);
        DYNMPI_REQUIRE(pos + nbytes <= blob.size(),
                       "replica store: truncated blob");
        auto it = store.try_emplace(hint, row);
        hint = std::next(it);
        auto& slot = it->second;
        bytes_ -= slot.size();
        slot.assign(blob.begin() + static_cast<std::ptrdiff_t>(pos),
                    blob.begin() + static_cast<std::ptrdiff_t>(pos + nbytes));
        bytes_ += slot.size();
        pos += nbytes;
        stored.add(row, row + 1);
    }
    return stored;
}

// dynmpi-lint: repair-critical
std::vector<std::byte> ReplicaStore::extract(std::size_t array_idx,
                                             const RowSet& rows) const {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    const auto& store = rows_[array_idx];
    std::vector<std::byte> out;
    std::uint32_t count = 0;
    DistArray::put_u32(out, 0); // patched below
    for (const auto& iv : rows.intervals()) {
        for (int r = iv.lo; r < iv.hi; ++r) {
            auto it = store.find(r);
            if (it == store.end()) continue;
            DistArray::put_u32(out, static_cast<std::uint32_t>(r));
            DistArray::put_u64(out, it->second.size());
            out.insert(out.end(), it->second.begin(), it->second.end());
            ++count;
        }
    }
    // Patch the row count now that we know it.
    std::vector<std::byte> header;
    DistArray::put_u32(header, count);
    std::copy(header.begin(), header.end(), out.begin());
    return out;
}

RowSet ReplicaStore::rows_held(std::size_t array_idx,
                               const RowSet& scope) const {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    const auto& store = rows_[array_idx];
    RowSet held;
    for (const auto& iv : scope.intervals())
        for (int r = iv.lo; r < iv.hi; ++r)
            if (store.count(r)) held.add(r, r + 1);
    return held;
}

RowSet ReplicaStore::rows_in_blob(const std::vector<std::byte>& blob) {
    RowSet rows;
    std::size_t pos = 0;
    std::uint32_t nrows = DistArray::get_u32(blob, pos);
    for (std::uint32_t i = 0; i < nrows; ++i) {
        int row = static_cast<int>(DistArray::get_u32(blob, pos));
        std::uint64_t nbytes = DistArray::get_u64(blob, pos);
        DYNMPI_REQUIRE(pos + nbytes <= blob.size(),
                       "replica blob: truncated row");
        pos += nbytes;
        rows.add(row, row + 1);
    }
    return rows;
}

void ReplicaStore::retain_only(std::size_t array_idx, const RowSet& keep) {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    auto& store = rows_[array_idx];
    for (auto it = store.begin(); it != store.end();) {
        if (keep.contains(it->first)) {
            ++it;
        } else {
            bytes_ -= it->second.size();
            it = store.erase(it);
        }
    }
}

void ReplicaStore::clear() {
    for (auto& store : rows_) store.clear();
    bytes_ = 0;
}

}  // namespace dynmpi
