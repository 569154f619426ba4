// The top level of a distributed array (paper §4.1, Figure 3): a table of
// row pointers indexed by row id, shared by DenseArray and SparseMatrix.
//
// The table spans a window of row ids, [base, base + slots), that contains
// every row with storage; slots of rows without storage are null.  Reaching
// a row is one subtraction, one unsigned bounds compare and one load.
//
// Sizing keeps every operation amortized O(1) per row:
//   - cover() re-bases only when the needed span leaves the window, and then
//     leaves a quarter of the new span as headroom on each side, so a window
//     that grows or shifts a few rows per call re-bases rarely;
//   - fit() narrows the window only once the held span falls below half of
//     it, so dropping rows one call at a time does not reallocate each time.
// Row storage itself never moves: a re-base moves pointers, not rows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dynmpi/row_set.hpp"
#include "support/error.hpp"

namespace dynmpi {

template <typename Row>
class RowTable {
public:
    using Slot = std::unique_ptr<Row>;
    using Ptr = typename Slot::pointer;

    /// A table for row ids in [0, limit).
    explicit RowTable(int limit) : limit_(limit) {}

    /// Storage of `row`, or null if it has none.  Rows below the window
    /// wrap to large unsigned indices, so one compare rejects both sides.
    Ptr find(int row) const {
        const std::size_t i = index(row);
        return i < slots_.size() ? slots_[i].get() : nullptr;
    }

    /// The slot of `row`, which must lie inside the window (see cover).
    Slot& slot(int row) {
        const std::size_t i = index(row);
        DYNMPI_CHECK(i < slots_.size(), "row outside the row table window");
        return slots_[i];
    }

    /// Free the storage of every row of `rows`; returns how many had any.
    int erase(const RowSet& rows) {
        const int end = base_ + static_cast<int>(slots_.size());
        int freed = 0;
        for (const RowInterval& iv : rows.intervals())
            for (int r = std::max(iv.lo, base_); r < std::min(iv.hi, end); ++r)
                if (Slot& s = slots_[index(r)]) {
                    s.reset();
                    ++freed;
                }
        return freed;
    }

    /// Widen the window to contain `held` and [lo, hi), both inside
    /// [0, limit).  `held` must contain every row that has storage.
    void cover(const RowSet& held, int lo, int hi) {
        if (!held.empty()) {
            lo = std::min(lo, held.first());
            hi = std::max(hi, held.last() + 1);
        }
        if (lo >= base_ && hi <= base_ + static_cast<int>(slots_.size()))
            return;
        rebase_around(lo, hi);
    }

    /// Narrow the window around the span of `held` once that span is below
    /// half the window; an empty `held` releases the table.
    void fit(const RowSet& held) {
        if (held.empty()) {
            slots_ = std::vector<Slot>();
            base_ = 0;
            return;
        }
        const int lo = held.first(), hi = held.last() + 1;
        if (2 * static_cast<std::size_t>(hi - lo) < slots_.size())
            rebase_around(lo, hi);
    }

private:
    /// Re-base to [lo, hi) plus a quarter of its span as headroom on each
    /// side, clipped to [0, limit).  The window is then at most 1.5 times
    /// the span, so fit() narrows it again only after a quarter of the span
    /// is dropped.
    void rebase_around(int lo, int hi) {
        const int headroom = (hi - lo) / 4;
        rebase(std::max(0, lo - headroom), std::min(limit_, hi + headroom));
    }

    std::size_t index(int row) const {
        return static_cast<std::uint32_t>(row) -
               static_cast<std::uint32_t>(base_);
    }

    /// Move every slot to a fresh window [lo, hi), which must contain all
    /// rows that have storage.
    void rebase(int lo, int hi) {
        std::vector<Slot> next(static_cast<std::size_t>(hi - lo));
        const int end = base_ + static_cast<int>(slots_.size());
        for (int r = std::max(lo, base_); r < std::min(hi, end); ++r)
            next[static_cast<std::size_t>(r - lo)] =
                std::move(slots_[index(r)]);
        slots_ = std::move(next);
        base_ = lo;
    }

    int limit_;    ///< row ids run from 0 to limit_ - 1
    int base_ = 0; ///< row id of slots_[0]
    std::vector<Slot> slots_;
};

}  // namespace dynmpi
