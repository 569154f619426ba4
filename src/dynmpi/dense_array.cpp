#include "dynmpi/dense_array.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

namespace dynmpi {

namespace {
/// Largest block of a DenseArray, in bytes: rows narrower than this share
/// blocks of up to this size, wider ones get a block each.
constexpr std::size_t kBlockBytes = 4096;

/// Calls f with the row size: as a compile-time constant for one-double
/// rows (a CG vector's), so each row's copy compiles to one move rather
/// than a memcpy call, and as a plain value for every other size.
template <typename F>
void with_row_bytes(std::size_t n, F&& f) {
    if (n == sizeof(double))
        return f(std::integral_constant<std::size_t, sizeof(double)>{});
    return f(n);
}

/// The largest power of two that fits that many rows in kBlockBytes, at
/// least 1.  A zero size, which the constructor rejects, counts as 1.
int block_rows_for(std::size_t row_bytes) {
    return static_cast<int>(std::bit_floor(std::max<std::size_t>(
        1, kBlockBytes / std::max<std::size_t>(row_bytes, 1))));
}
}  // namespace

DenseArray::DenseArray(std::string name, int global_rows, int row_elems,
                       std::size_t elem_bytes)
    : DistArray(std::move(name), global_rows),
      row_elems_(row_elems),
      elem_bytes_(elem_bytes),
      rows_(global_rows_,
            block_rows_for(static_cast<std::size_t>(row_elems) * elem_bytes)),
      held_bits_((static_cast<std::size_t>(global_rows_) + 63) / 64, 0) {
    DYNMPI_REQUIRE(row_elems_ > 0, "extended row needs elements");
    DYNMPI_REQUIRE(elem_bytes_ > 0, "element size must be positive");
}

void DenseArray::fail_span(int lo, int hi) const {
    const int mask = block_rows() - 1;
    DYNMPI_REQUIRE(lo < hi && (lo | mask) == ((hi - 1) | mask),
                   "row span is empty or crosses a block of " + name_);
    // held_span found a row of [lo, hi) out of range or not held.
    int r = lo;
    while (r + 1 < hi && r >= 0 && r < global_rows_ && is_held(r)) ++r;
    fail_non_held(r);
}

int DenseArray::set_held(int lo, int hi, bool held) {
    int changed = 0;
    for (int w = lo >> 6; w <= (hi - 1) >> 6; ++w) {
        std::uint64_t& word = held_bits_[static_cast<std::size_t>(w)];
        const std::uint64_t bits = bits_in(w, lo, hi);
        changed += std::popcount(held ? bits & ~word : bits & word);
        word = held ? word | bits : word & ~bits;
    }
    return changed;
}

std::byte* DenseArray::block_of(int row) {
    auto& slot = rows_.slot(row);
    if (!slot) {
        const int first = row & ~(block_rows() - 1);
        const int rows = std::min(block_rows(), global_rows_ - first);
        slot = std::make_unique_for_overwrite<std::byte[]>(
            static_cast<std::size_t>(rows) * row_bytes());
    }
    return slot.get();
}

std::vector<std::byte> DenseArray::pack_rows(const RowSet& rows) const {
    // Every row is a fixed 12-byte header plus row_bytes() of payload, so
    // the buffer is sized once and written through a pointer; each block's
    // rows are read in place, one held check per span.
    const std::uint32_t nrows = static_cast<std::uint32_t>(rows.count());
    const std::uint64_t nbytes = row_bytes();
    std::vector<std::byte> out(4 + nrows * (12 + nbytes));
    std::byte* w = out.data();
    std::memcpy(w, &nrows, 4);
    w += 4;
    with_row_bytes(nbytes, [&](auto size) {
        for_each_span(rows, [&](int lo, int hi) {
            const std::byte* data = span_data(lo, hi);
            for (int r = lo; r < hi; ++r, data += size) {
                std::memcpy(w, &r, 4);
                std::memcpy(w + 4, &nbytes, 8);
                std::memcpy(w + 12, data, size);
                w += 12 + size;
            }
        });
    });
    return out;
}

RowSet DenseArray::unpack_rows(const std::vector<std::byte>& data) {
    // Validate the whole buffer first, so a malformed one changes nothing
    // and the table is sized once.  Records then go straight into their
    // block, looked up once per run of records in the same block.  The
    // rows are marked held and dirty after the copy pass, a word of held
    // bits and one fill per interval.
    const std::size_t nbytes = row_bytes();
    const RowSet rows = framed_rows(data, nbytes);
    if (!rows.empty()) rows_.cover(held_, rows.first(), rows.last() + 1);
    const int mask = block_rows() - 1;
    with_row_bytes(nbytes, [&](auto size) {
        int block_first = -1;
        std::byte* block = nullptr;
        for_each_unit_record(
            data, size, [&](int row, std::uint64_t, const std::byte* payload) {
                if ((row & ~mask) != block_first) {
                    block_first = row & ~mask;
                    block = block_of(row);
                }
                std::memcpy(block + static_cast<std::size_t>(row & mask) * size,
                            payload, size);
            });
    });
    for (const RowInterval& iv : rows.intervals())
        stats_.rows_allocated +=
            static_cast<std::uint64_t>(set_held(iv.lo, iv.hi, true));
    mark_rows_dirty(rows);
    held_.add(rows);
    return rows;
}

void DenseArray::drop_rows(const RowSet& rows) {
    for (const RowInterval& iv : rows.intervals()) {
        const int lo = std::max(iv.lo, 0), hi = std::min(iv.hi, global_rows_);
        if (lo < hi)
            stats_.rows_freed +=
                static_cast<std::uint64_t>(set_held(lo, hi, false));
    }
    rows_.erase(rows, [&](int lo, int hi) {
        return !all_bits(lo, std::min(hi, global_rows_), false);
    });
    held_.subtract_with(rows);
    rows_.fit(held_);
}

void DenseArray::ensure_rows(const RowSet& rows) {
    if (rows.empty()) return;
    DYNMPI_REQUIRE(rows.first() >= 0 && rows.last() < global_rows_,
                   "row out of range");
    rows_.cover(held_, rows.first(), rows.last() + 1);
    // A block can outlive rows dropped from it, so each newly held row is
    // zeroed on its own.
    const int mask = block_rows() - 1;
    const std::size_t size = row_bytes();
    for_each_span(rows, [&](int lo, int hi) {
        std::byte* block = block_of(lo);
        for (int r = lo; r < hi; ++r) {
            if (is_held(r)) continue;
            std::memset(block + static_cast<std::size_t>(r & mask) * size, 0,
                        size);
            ++stats_.rows_allocated;
            mark_row_dirty(r);
        }
        set_held(lo, hi, true);
    });
    held_.add(rows);
}

}  // namespace dynmpi
