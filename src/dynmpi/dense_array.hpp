// Dense matrices under the 2-D projection allocation scheme (paper §4.1.1,
// Figure 3).
//
// An n-dimensional array is projected onto two dimensions: the distributed
// first dimension, and *extended rows* holding the product of the remaining
// dimensions.  Rows are stored in blocks of block_rows() consecutive row
// ids, the largest power of two with block_rows() * row_bytes() <= 4 KB
// (at least one row), and the top level is a RowTable: one block pointer
// per slot, indexed by row id over a window that spans the held rows.  A
// block is allocated when its first row becomes held and freed when its
// last held row is dropped; rows never move.  Rows of 4 KB or wider get one
// block each, which is Figure 3's one allocation per extended row, so
// redistribution of wide rows:
//   - ships whole extended rows in single messages,
//   - reuses surviving rows by pointer (no copy), and
//   - allocates/frees only the rows that actually change hands.
// Narrow rows (a CG vector's row is one double) would otherwise pay a
// pointer and a malloc chunk per element; a block packs a page of them, so
// a run of held rows inside one block is one array (span_ptr), and the
// table still allocates only for blocks that change hands.  The contiguous
// baseline of Figure 3 is bench/contiguous_dense_array.hpp.
#pragma once

#include <cstdint>
#include <cstring>

#include "dynmpi/dist_array.hpp"
#include "dynmpi/row_table.hpp"
#include "support/error.hpp"

namespace dynmpi {

class DenseArray final : public DistArray {
public:
    /// `row_elems` elements of `elem_bytes` each per extended row.
    DenseArray(std::string name, int global_rows, int row_elems,
               std::size_t elem_bytes);

    int row_elems() const { return row_elems_; }
    std::size_t elem_bytes() const { return elem_bytes_; }
    std::size_t row_bytes() const {
        return static_cast<std::size_t>(row_elems_) * elem_bytes_;
    }

    /// Rows per storage block: a power of two, 1 for rows of 4 KB or wider.
    int block_rows() const { return rows_.block_rows(); }

    /// Raw storage of a held row.  The non-const version marks it dirty.
    std::byte* row_data(int row) {
        std::byte* p = held_row(row);
        mark_row_dirty(row);
        return p;
    }
    const std::byte* row_data(int row) const { return held_row(row); }

    /// Typed view of a held extended row: one held check, one block lookup
    /// and one element-size check, then plain indexing by column (no bounds
    /// check past that).  The non-const version marks the row dirty once,
    /// exactly as any number of non-const at<T> calls on it would.
    template <typename T>
    T* row_ptr(int row) {
        DYNMPI_REQUIRE(sizeof(T) == elem_bytes_, "element type mismatch");
        return reinterpret_cast<T*>(row_data(row));
    }
    template <typename T>
    const T* row_ptr(int row) const {
        DYNMPI_REQUIRE(sizeof(T) == elem_bytes_, "element type mismatch");
        return reinterpret_cast<const T*>(row_data(row));
    }

    /// Raw storage of the held rows [lo, hi), which lie in one block (see
    /// for_each_span): row lo + k starts k * row_bytes() past the result.
    /// Held-ness is checked once for the span, 64 rows per load.  The
    /// non-const version marks the span dirty with one fill.
    std::byte* span_data(int lo, int hi) {
        std::byte* p = held_span(lo, hi);
        std::memset(dirty_.data() + lo, 1, static_cast<std::size_t>(hi - lo));
        return p;
    }
    const std::byte* span_data(int lo, int hi) const {
        return held_span(lo, hi);
    }

    /// Typed span_data: element j of row lo + k is at [k * row_elems() + j].
    /// Hot loops over many narrow rows fetch each span once through this.
    template <typename T>
    T* span_ptr(int lo, int hi) {
        DYNMPI_REQUIRE(sizeof(T) == elem_bytes_, "element type mismatch");
        return reinterpret_cast<T*>(span_data(lo, hi));
    }
    template <typename T>
    const T* span_ptr(int lo, int hi) const {
        DYNMPI_REQUIRE(sizeof(T) == elem_bytes_, "element type mismatch");
        return reinterpret_cast<const T*>(span_data(lo, hi));
    }

    /// Calls f(lo, hi) for each piece of `rows` inside one block, in
    /// ascending order: the spans that span_data accepts.  Arrays with the
    /// same row size share the split.
    template <typename F>
    void for_each_span(const RowSet& rows, F&& f) const {
        const int mask = block_rows() - 1;
        for (const RowInterval& iv : rows.intervals())
            for (int lo = iv.lo; lo < iv.hi;) {
                const int last = lo | mask; // the last row id of lo's block
                const int hi = last < iv.hi ? last + 1 : iv.hi;
                f(lo, hi);
                lo = hi;
            }
    }

    /// Typed element access: element `j` of extended row `row`.  Checked per
    /// call; for cold code.
    template <typename T>
    T& at(int row, int j) {
        DYNMPI_REQUIRE(sizeof(T) == elem_bytes_, "element type mismatch");
        DYNMPI_REQUIRE(j >= 0 && j < row_elems_, "column out of range");
        return reinterpret_cast<T*>(row_data(row))[j];
    }
    template <typename T>
    const T& at(int row, int j) const {
        DYNMPI_REQUIRE(sizeof(T) == elem_bytes_, "element type mismatch");
        DYNMPI_REQUIRE(j >= 0 && j < row_elems_, "column out of range");
        return reinterpret_cast<const T*>(row_data(row))[j];
    }

    // ---- DistArray ----
    std::vector<std::byte> pack_rows(const RowSet& rows) const override;
    RowSet unpack_rows(const std::vector<std::byte>& data) override;
    void drop_rows(const RowSet& rows) override;
    void ensure_rows(const RowSet& rows) override;
    std::unique_ptr<DistArray> empty_like() const override {
        return std::make_unique<DenseArray>(name_, global_rows_, row_elems_,
                                            elem_bytes_);
    }
    std::size_t nominal_row_bytes() const override { return row_bytes(); }
    std::size_t local_bytes() const override {
        return static_cast<std::size_t>(held_.count()) * row_bytes();
    }

private:
    // A one-row block has storage exactly while its row is held, so for
    // rows of 4 KB or wider the block lookup is the whole held check, as
    // with one allocation per row; narrower rows also test their held bit.

    /// Storage of held row `row`.
    std::byte* held_row(int row) const {
        std::byte* block = rows_.find(row);
        const int mask = block_rows() - 1;
        if (!block ||
            (mask != 0 && (static_cast<std::size_t>(row) >=
                               static_cast<std::size_t>(global_rows_) ||
                           !is_held(row)))) [[unlikely]]
            fail_non_held(row);
        return block + static_cast<std::size_t>(row & mask) * row_bytes();
    }
    /// Storage of the held rows [lo, hi) of one block.  Inline, with the
    /// throw out of line, so a caller's loop keeps its values in registers.
    std::byte* held_span(int lo, int hi) const {
        std::byte* block = rows_.find(lo);
        const int mask = block_rows() - 1;
        if (!block || lo >= hi || (lo | mask) != ((hi - 1) | mask) ||
            (mask != 0 && (hi > global_rows_ || !all_bits(lo, hi, true))))
            [[unlikely]]
            fail_span(lo, hi);
        return block + static_cast<std::size_t>(lo & mask) * row_bytes();
    }
    [[noreturn]] void fail_span(int lo, int hi) const;

    // Held bits: bit r % 64 of held_bits_[r / 64] is set while row r, in
    // [0, global_rows), is held.
    bool is_held(int row) const {
        return (held_bits_[static_cast<std::size_t>(row >> 6)] >> (row & 63)) &
               1;
    }
    /// Sets (`held`) or clears the bits of rows [lo, hi), a non-empty
    /// range inside [0, global_rows), 64 rows per word; returns how many
    /// bits that changed.
    int set_held(int lo, int hi, bool held);
    /// Whether every row of [lo, hi), a non-empty range inside
    /// [0, global_rows), is held (`held`) or not held: 64 rows per load.
    bool all_bits(int lo, int hi, bool held) const {
        const std::uint64_t want = held ? ~std::uint64_t{0} : 0;
        for (int w = lo >> 6; w <= (hi - 1) >> 6; ++w)
            if ((held_bits_[static_cast<std::size_t>(w)] ^ want) &
                bits_in(w, lo, hi))
                return false;
        return true;
    }
    /// The bits of word `w` that belong to rows [lo, hi).
    static std::uint64_t bits_in(int w, int lo, int hi) {
        std::uint64_t bits = ~std::uint64_t{0};
        if (w == lo >> 6) bits &= ~std::uint64_t{0} << (lo & 63);
        if (w == (hi - 1) >> 6)
            bits &= ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
        return bits;
    }
    /// The storage of the block holding `row`, allocated (uninitialized)
    /// if it has none; `row` must lie inside the table's window.
    std::byte* block_of(int row);

    int row_elems_;
    std::size_t elem_bytes_;
    RowTable<std::byte[]> rows_; ///< row id → its block's storage
    /// One bit per row, set while the row is held: a row inside an
    /// allocated block need not be held.
    std::vector<std::uint64_t> held_bits_;
};

}  // namespace dynmpi
