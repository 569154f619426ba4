// Base interface for redistributable arrays (paper §4.1).
//
// Dyn-MPI can only redistribute data it allocated, so every redistributable
// array is registered with the runtime and implements this interface: rows
// can be packed into a flat message, unpacked on arrival, dropped, or
// allocated fresh.  Dense and sparse arrays share the interface — the
// near-uniform allocation scheme is one of the paper's contributions.
//
// Pack wire format (shared by all implementations, written and read with
// the WireWriter/WireReader of support/wire.hpp):
//   u32 nrows, then per row: u32 row_id, u64 payload_bytes, payload.
// Unpacking rejects a buffer with bytes left after the last row.  Replica
// and restore blobs (replica.hpp) are this same format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dynmpi/row_set.hpp"
#include "support/error.hpp"
#include "support/wire.hpp"

namespace dynmpi {

class DistArray {
public:
    struct Stats {
        std::uint64_t rows_allocated = 0;
        std::uint64_t rows_freed = 0;
        std::uint64_t bytes_copied = 0; ///< data moved by (re)allocation
        std::uint64_t reallocations = 0;
    };

    DistArray(std::string name, int global_rows);
    virtual ~DistArray() = default;

    const std::string& name() const { return name_; }
    int global_rows() const { return global_rows_; }

    /// Rows currently stored on this node.
    const RowSet& held() const { return held_; }
    bool has_row(int row) const { return held_.contains(row); }

    /// Serialize the given (held) rows for transfer.
    virtual std::vector<std::byte> pack_rows(const RowSet& rows) const = 0;

    /// Deserialize rows produced by pack_rows (possibly from another node);
    /// the rows become held, replacing any local copies.  The whole buffer
    /// is validated first, so a malformed one throws and changes nothing.
    /// Returns the rows the buffer framed.
    virtual RowSet unpack_rows(const std::vector<std::byte>& data) = 0;

    /// Release storage for the given rows.
    virtual void drop_rows(const RowSet& rows) = 0;

    /// Allocate (zero/empty) storage for any of `rows` not yet held.
    virtual void ensure_rows(const RowSet& rows) = 0;

    /// A new array of the same kind, name and shape that holds no rows.
    virtual std::unique_ptr<DistArray> empty_like() const = 0;

    /// Keep only `keep`; everything else is dropped.
    void retain_only(const RowSet& keep);

    // ---- dirty-row tracking (replication support) ----
    //
    // Every mutation path (writable row access, unpack, fresh allocation)
    // marks the touched rows dirty; the replication layer reads the dirty
    // set to ship incremental deltas and clears it once a refresh lands.
    // The interval calls are one fill per interval, and dirty_rows tests
    // eight rows' flags per load.  Rows outside [0, global_rows) are
    // ignored.

    void mark_row_dirty(int row) {
        // A negative row wraps to a huge index and fails the bounds check.
        const auto r = static_cast<std::size_t>(row);
        if (r < static_cast<std::size_t>(global_rows_)) dirty_[r] = 1;
    }
    void mark_rows_dirty(const RowSet& rows);

    /// Rows within `scope` modified since the last clear_dirty.
    RowSet dirty_rows(const RowSet& scope) const;
    void clear_dirty(const RowSet& rows);

    /// Expected storage per row (dense: exact; sparse: current average) —
    /// the basis for memory-aware balancing.
    virtual std::size_t nominal_row_bytes() const = 0;

    /// Actual bytes of application data held locally right now.
    virtual std::size_t local_bytes() const = 0;

    const Stats& stats() const { return stats_; }

protected:
    /// The validating first pass of a fixed-size unpack_rows: row ids
    /// inside the array, every record 12 + unit bytes (a payload of exactly
    /// `unit` bytes), and no bytes after the last row.  The count fixes the
    /// length, so it is checked once and each header read at its fixed
    /// offset.  A malformed buffer throws here, before the array changes.
    /// Returns the rows the buffer frames.
    RowSet framed_rows(const std::vector<std::byte>& data,
                       std::uint64_t unit) const;

    /// Calls f(row, payload_bytes, payload) for each record of a buffer
    /// whose records are all 12 + unit bytes, such as one framed_rows
    /// accepted.  `unit` may be a std::integral_constant, which makes the
    /// stride a constant.
    template <typename Unit, typename F>
    static void for_each_unit_record(const std::vector<std::byte>& data,
                                     Unit unit, F&& f) {
        for (std::size_t at = 4; at < data.size();
             at += 12 + static_cast<std::size_t>(unit)) {
            std::uint32_t row;
            std::uint64_t nbytes;
            std::memcpy(&row, data.data() + at, 4);
            std::memcpy(&nbytes, data.data() + at + 4, 8);
            f(static_cast<int>(row), nbytes, data.data() + at + 12);
        }
    }

    /// Throws the "access to non-held row" Error.  Out of line, so the
    /// inline row lookups of the subclasses stay one compare and one load.
    [[noreturn]] void fail_non_held(int row) const;

    std::string name_;
    int global_rows_;
    RowSet held_;
    /// Per-row modified-since-refresh flags, 0 or 1, then eight bytes of
    /// clear padding so a word load at any row stays inside.
    std::vector<char> dirty_;
    Stats stats_;
};

}  // namespace dynmpi
