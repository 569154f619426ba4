// Sparse matrices in the paper's vector-of-lists format (paper §2.2, §4.1.2).
//
// Each held row stores its (column id, value) pairs as one contiguous array
// kept strictly ascending by column.  The format mirrors the dense scheme as
// closely as possible: the distributed dimension is the same RowTable of row
// pointers, indexed by row id over a window that spans the held rows, and an
// "extended row" is the entry array.  Redistribution copies a row's entries
// into the wire vector in one piece and back out on receipt (paper §4.4) —
// data *and* metadata move together, and rows that stay are not touched.
//
// The Cursor class provides the paper's user-convenience iterator: move to
// the first element, get the next element, set the next element, and advance
// the row.  set() and erase() on a row may move its entries, so they
// invalidate a Cursor positioned in that row; call move_first() before using
// it again.
#pragma once

#include <algorithm>
#include <vector>

#include "dynmpi/dist_array.hpp"
#include "dynmpi/row_table.hpp"
#include "support/error.hpp"

namespace dynmpi {

/// One stored element: (data element, column id) pair.
struct SparseEntry {
    int col = 0;
    double value = 0.0;
    bool operator==(const SparseEntry&) const = default;
};

class SparseMatrix final : public DistArray {
public:
    using RowList = std::vector<SparseEntry>;

    SparseMatrix(std::string name, int global_rows, int global_cols);

    int global_cols() const { return global_cols_; }

    // ---- element access ----

    /// Insert or overwrite element (row, col).  The row must be held.
    void set(int row, int col, double value);

    /// Value at (row, col); structural zeros read as 0.0.
    double get(int row, int col) const;

    /// Remove an element if present; returns true if removed.
    bool erase(int row, int col);

    /// The stored entries of a held row (strictly ascending by column).
    const RowList& row(int r) const {
        const RowList* entries = rows_.find(r);
        if (!entries) [[unlikely]]
            fail_non_held(r);
        return *entries;
    }

    /// Number of stored elements in a held row.
    int row_nnz(int r) const;

    /// Stored elements across all held rows.
    int nnz() const;

    // ---- paper-style iterator ----

    /// Walks held rows in ascending row order, elements in column order.
    /// set() or erase() on the row it is positioned in invalidates it.
    class Cursor {
    public:
        explicit Cursor(SparseMatrix& m);

        /// Reset to the first element of the first held row.
        void move_first();

        /// True when the cursor has passed the last element.
        bool at_end() const;

        /// Current position (valid unless at_end()).
        int current_row() const;
        const SparseEntry& current() const;

        /// Return the current element and step forward.  Equivalent to the
        /// paper's "get the next element".
        SparseEntry next();

        /// Overwrite the current element's value and step forward ("set the
        /// next element").
        void set_next(double value);

        /// Skip the rest of this row and move to the next held row.
        void advance_row();

    private:
        void skip_empty_rows();
        /// Point at the first element of row_.
        void enter_row();
        /// Move to the first element of the next held row.
        void step_row();

        SparseMatrix& m_;
        std::vector<RowInterval> held_; ///< held rows at move_first()
        std::size_t iv_ = 0;            ///< interval of row_
        int row_ = 0;
        RowList::iterator elem_;
        RowList::iterator end_; ///< end of row_'s entries
    };

    Cursor cursor() { return Cursor(*this); }

    // ---- DistArray ----
    std::vector<std::byte> pack_rows(const RowSet& rows) const override;
    RowSet unpack_rows(const std::vector<std::byte>& data) override;
    void drop_rows(const RowSet& rows) override;
    void ensure_rows(const RowSet& rows) override;
    std::unique_ptr<DistArray> empty_like() const override {
        return std::make_unique<SparseMatrix>(name_, global_rows_,
                                              global_cols_);
    }
    std::size_t nominal_row_bytes() const override {
        int held = held_.count();
        int avg_nnz = held > 0 ? (nnz() + held - 1) / held : 1;
        return static_cast<std::size_t>(std::max(1, avg_nnz)) *
               sizeof(SparseEntry);
    }
    std::size_t local_bytes() const override {
        return static_cast<std::size_t>(nnz()) * sizeof(SparseEntry);
    }

private:
    RowList& row_mut(int r) {
        RowList* entries = rows_.find(r);
        if (!entries) [[unlikely]]
            fail_non_held(r);
        return *entries;
    }

    int global_cols_;
    RowTable<RowList> rows_; ///< row id → the row's entries
};

}  // namespace dynmpi
