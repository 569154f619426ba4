#include "bench/contiguous_dense_array.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"
#include "support/wire.hpp"

namespace dynmpi {

ContiguousDenseArray::ContiguousDenseArray(std::string name, int global_rows,
                                           int row_elems,
                                           std::size_t elem_bytes)
    : DistArray(std::move(name), global_rows),
      row_elems_(row_elems),
      elem_bytes_(elem_bytes) {
    DYNMPI_REQUIRE(row_elems_ > 0, "extended row needs elements");
    DYNMPI_REQUIRE(elem_bytes_ > 0, "element size must be positive");
}

std::byte* ContiguousDenseArray::row_data(int row) {
    DYNMPI_REQUIRE(held_.contains(row), "access to non-held row of " + name_);
    mark_row_dirty(row);
    return buffer_.data() + static_cast<std::size_t>(row - base_) * row_bytes();
}

const std::byte* ContiguousDenseArray::row_data(int row) const {
    DYNMPI_REQUIRE(held_.contains(row), "access to non-held row of " + name_);
    return buffer_.data() + static_cast<std::size_t>(row - base_) * row_bytes();
}

void ContiguousDenseArray::reextent(int lo, int hi) {
    if (lo == base_ && hi == base_ + extent_) return;
    std::vector<std::byte> next(static_cast<std::size_t>(hi - lo) *
                                    row_bytes(),
                                std::byte{0});
    // Copy surviving rows into their (shifted) positions — this is the cost
    // the projection scheme avoids.
    int keep_lo = std::max(lo, base_);
    int keep_hi = std::min(hi, base_ + extent_);
    if (keep_lo < keep_hi) {
        std::size_t bytes =
            static_cast<std::size_t>(keep_hi - keep_lo) * row_bytes();
        std::memcpy(next.data() +
                        static_cast<std::size_t>(keep_lo - lo) * row_bytes(),
                    buffer_.data() +
                        static_cast<std::size_t>(keep_lo - base_) * row_bytes(),
                    bytes);
        stats_.bytes_copied += bytes;
    }
    int grown = std::max(0, (hi - lo) - extent_);
    stats_.rows_allocated += static_cast<std::uint64_t>(grown);
    int shrunk = std::max(0, extent_ - (hi - lo));
    stats_.rows_freed += static_cast<std::uint64_t>(shrunk);
    ++stats_.reallocations;
    buffer_ = std::move(next);
    base_ = lo;
    extent_ = hi - lo;
}

std::vector<std::byte> ContiguousDenseArray::pack_rows(
    const RowSet& rows) const {
    // Exact-size reserve plus one held-check per interval: held_ intervals
    // are coalesced, so a fully-held request interval lies inside a single
    // held interval.  Rows then stream straight out of the contiguous
    // buffer with no per-row map or containment probes.
    WireWriter out(4 + static_cast<std::size_t>(rows.count()) *
                           (12 + row_bytes()));
    out.u32(static_cast<std::uint32_t>(rows.count()));
    for (const RowInterval& iv : rows.intervals()) {
        bool covered = false;
        for (const RowInterval& h : held_.intervals())
            if (h.lo <= iv.lo && iv.hi <= h.hi) {
                covered = true;
                break;
            }
        DYNMPI_REQUIRE(covered, "access to non-held row of " + name_);
        const std::byte* data =
            buffer_.data() +
            static_cast<std::size_t>(iv.lo - base_) * row_bytes();
        for (int r = iv.lo; r < iv.hi; ++r, data += row_bytes()) {
            out.u32(static_cast<std::uint32_t>(r));
            out.u64(row_bytes());
            out.bytes(data, row_bytes());
        }
    }
    return out.take();
}

RowSet ContiguousDenseArray::unpack_rows(const std::vector<std::byte>& data) {
    // Validate the whole buffer and find the new extent first, so a
    // malformed buffer throws before the array changes.
    const RowSet incoming = framed_rows(data, row_bytes());
    if (!incoming.empty()) {
        int lo = extent_ == 0 ? incoming.first()
                              : std::min(base_, incoming.first());
        int hi = extent_ == 0 ? incoming.last() + 1
                              : std::max(base_ + extent_, incoming.last() + 1);
        reextent(lo, hi);
    }
    for_each_unit_record(
        data, row_bytes(),
        [&](int row, std::uint64_t, const std::byte* payload) {
            std::memcpy(buffer_.data() +
                            static_cast<std::size_t>(row - base_) * row_bytes(),
                        payload, row_bytes());
        });
    mark_rows_dirty(incoming);
    held_.add(incoming);
    return incoming;
}

void ContiguousDenseArray::drop_rows(const RowSet& rows) {
    held_ = held_.subtract(rows);
    if (held_.empty()) {
        reextent(0, 0);
        return;
    }
    // Shrink the buffer to the held span (copies survivors).
    reextent(held_.first(), held_.last() + 1);
}

void ContiguousDenseArray::ensure_rows(const RowSet& rows) {
    if (rows.empty()) return;
    RowSet target = held_.unite(rows);
    mark_rows_dirty(rows.subtract(held_));
    reextent(target.first(), target.last() + 1);
    held_ = target;
}

}  // namespace dynmpi
