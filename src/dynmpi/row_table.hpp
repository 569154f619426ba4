// The top level of a distributed array (paper §4.1, Figure 3): a table of
// block pointers indexed by row id, shared by DenseArray and SparseMatrix.
//
// A block is the storage of `block_rows` consecutive row ids, a power of
// two, starting at a multiple of it.  SparseMatrix uses one-row blocks, so
// each row is its own allocation; DenseArray sizes its blocks to about a
// page (dense_array.hpp), which for rows of a page or wider is again one
// row per block.  The table maps a row id to its block's storage, and the
// owner of the table locates the row inside the block.
//
// The table spans a window of block ids, [base, base + slots), that
// contains every block with storage; slots of blocks without storage are
// null.  Reaching a block is one shift, one subtraction, one unsigned
// bounds compare and one load.
//
// Sizing keeps every operation amortized O(1) per block:
//   - cover() re-bases only when the needed span leaves the window, and then
//     leaves a quarter of the new span as headroom on each side, so a window
//     that grows or shifts a few blocks per call re-bases rarely;
//   - fit() narrows the window only once the held span falls below half of
//     it, so dropping rows one call at a time does not reallocate each time.
// Block storage itself never moves: a re-base moves pointers, not rows.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dynmpi/row_set.hpp"
#include "support/error.hpp"

namespace dynmpi {

template <typename Block>
class RowTable {
public:
    using Slot = std::unique_ptr<Block>;
    using Ptr = typename Slot::pointer;

    /// A table for row ids in [0, limit), in blocks of `block_rows` rows.
    explicit RowTable(int limit, int block_rows = 1)
        : shift_(log2_of(block_rows)), limit_(((limit - 1) >> shift_) + 1) {}

    int block_rows() const { return 1 << shift_; }

    /// Storage of the block holding `row`, or null if it has none.  Rows
    /// below the window wrap to large unsigned indices, so one compare
    /// rejects both sides.
    Ptr find(int row) const {
        const std::size_t i = index(row);
        return i < slots_.size() ? slots_[i].get() : nullptr;
    }

    /// The slot of the block holding `row`, which must lie inside the
    /// window (see cover).
    Slot& slot(int row) {
        const std::size_t i = index(row);
        DYNMPI_CHECK(i < slots_.size(), "row outside the row table window");
        return slots_[i];
    }

    /// Free the storage of every block that `rows` touches, unless
    /// `in_use(lo, hi)` reports that a row id in the block's span [lo, hi)
    /// still needs it; returns how many blocks were freed.
    template <typename InUse>
    int erase(const RowSet& rows, InUse&& in_use) {
        const int end = base_ + static_cast<int>(slots_.size());
        int freed = 0;
        for (const RowInterval& iv : rows.intervals()) {
            const int hi = std::min(((iv.hi - 1) >> shift_) + 1, end);
            for (int b = std::max(iv.lo >> shift_, base_); b < hi; ++b) {
                Slot& s = slots_[static_cast<std::size_t>(b - base_)];
                if (s && !in_use(b << shift_, (b + 1) << shift_)) {
                    s.reset();
                    ++freed;
                }
            }
        }
        return freed;
    }

    /// Widen the window to contain the blocks of `held` and of rows
    /// [lo, hi), both inside [0, limit).  `held` must contain every row
    /// whose block has storage.
    void cover(const RowSet& held, int lo, int hi) {
        if (!held.empty()) {
            lo = std::min(lo, held.first());
            hi = std::max(hi, held.last() + 1);
        }
        const int blo = lo >> shift_, bhi = ((hi - 1) >> shift_) + 1;
        if (blo >= base_ && bhi <= base_ + static_cast<int>(slots_.size()))
            return;
        rebase_around(blo, bhi);
    }

    /// Narrow the window around the blocks of `held` once their span is
    /// below half the window; an empty `held` releases the table.
    void fit(const RowSet& held) {
        if (held.empty()) {
            slots_ = std::vector<Slot>();
            base_ = 0;
            return;
        }
        const int blo = held.first() >> shift_;
        const int bhi = (held.last() >> shift_) + 1;
        if (2 * static_cast<std::size_t>(bhi - blo) < slots_.size())
            rebase_around(blo, bhi);
    }

private:
    static int log2_of(int block_rows) {
        DYNMPI_REQUIRE(block_rows > 0 && std::has_single_bit(
                                             static_cast<unsigned>(block_rows)),
                       "block rows must be a power of two");
        return std::countr_zero(static_cast<unsigned>(block_rows));
    }

    /// Re-base to blocks [lo, hi) plus a quarter of its span as headroom on
    /// each side, clipped to [0, limit).  The window is then at most 1.5
    /// times the span, so fit() narrows it again only after a quarter of
    /// the span is dropped.
    void rebase_around(int lo, int hi) {
        const int headroom = (hi - lo) / 4;
        rebase(std::max(0, lo - headroom), std::min(limit_, hi + headroom));
    }

    /// The window index of the block holding `row`.
    std::size_t index(int row) const {
        return static_cast<std::uint32_t>(row >> shift_) -
               static_cast<std::uint32_t>(base_);
    }

    /// Move every slot to a fresh window of blocks [lo, hi), which must
    /// contain all blocks that have storage.
    void rebase(int lo, int hi) {
        std::vector<Slot> next(static_cast<std::size_t>(hi - lo));
        const int end = base_ + static_cast<int>(slots_.size());
        for (int b = std::max(lo, base_); b < std::min(hi, end); ++b)
            next[static_cast<std::size_t>(b - lo)] =
                std::move(slots_[static_cast<std::size_t>(b - base_)]);
        slots_ = std::move(next);
        base_ = lo;
    }

    int shift_;    ///< log2 of the rows per block
    int limit_;    ///< block ids run from 0 to limit_ - 1
    int base_ = 0; ///< block id of slots_[0]
    std::vector<Slot> slots_;
};

}  // namespace dynmpi
