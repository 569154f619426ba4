// Dense matrices under the 2-D projection allocation scheme (paper §4.1.1,
// Figure 3).
//
// An n-dimensional array is projected onto two dimensions: the distributed
// first dimension, and *extended rows* holding the product of the remaining
// dimensions.  Each extended row is its own contiguous allocation, and the
// top level is a per-row pointer table.  Redistribution therefore:
//   - ships whole extended rows in single messages,
//   - reuses surviving rows by pointer (no copy), and
//   - allocates/frees only the rows that actually change hands.
//
// ContiguousDenseArray is the baseline the paper argues against: one flat
// allocation spanning the local block, where any change of extent reallocates
// and copies everything.  It exists for the ablation bench.
#pragma once

#include <unordered_map>

#include "dynmpi/dist_array.hpp"
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

    /// Raw storage of a held row.
    std::byte* row_data(int row);
    const std::byte* row_data(int row) const;

    /// Typed view of a held extended row: one row lookup and one
    /// element-size check, then plain indexing by column (no bounds check
    /// past that).  The non-const version marks the row dirty once, exactly
    /// as any number of non-const at<T> calls on it would; hot loops fetch
    /// each row once through this.
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
    void unpack_rows(const std::vector<std::byte>& data) override;
    void drop_rows(const RowSet& rows) override;
    void ensure_rows(const RowSet& rows) override;
    std::size_t nominal_row_bytes() const override { return row_bytes(); }
    std::size_t local_bytes() const override {
        return static_cast<std::size_t>(held_.count()) * row_bytes();
    }

private:
    int row_elems_;
    std::size_t elem_bytes_;
    // Top-level "pointer vector": row id → extended row storage.  Accessed
    // strictly by key (find/try_emplace/erase); every iteration that feeds
    // pack_rows or replica blobs walks a sorted RowSet instead.
    std::unordered_map<int, std::vector<std::byte>> // dynmpi-lint: ok(unordered-lookup)
        rows_;
};

/// Baseline allocator: the local block lives in one contiguous buffer.
/// Changing the held extent reallocates the whole buffer and copies the
/// surviving data (the shaded cells of Figure 3).
class ContiguousDenseArray final : public DistArray {
public:
    ContiguousDenseArray(std::string name, int global_rows, int row_elems,
                         std::size_t elem_bytes);

    std::size_t row_bytes() const {
        return static_cast<std::size_t>(row_elems_) * elem_bytes_;
    }

    std::byte* row_data(int row);
    const std::byte* row_data(int row) const;

    template <typename T>
    T& at(int row, int j) {
        return reinterpret_cast<T*>(row_data(row))[j];
    }

    std::vector<std::byte> pack_rows(const RowSet& rows) const override;
    void unpack_rows(const std::vector<std::byte>& data) override;
    void drop_rows(const RowSet& rows) override;
    void ensure_rows(const RowSet& rows) override;
    std::size_t nominal_row_bytes() const override { return row_bytes(); }
    std::size_t local_bytes() const override { return buffer_.size(); }

private:
    /// Re-extent the buffer to cover [lo, hi), copying surviving rows.
    void reextent(int lo, int hi);

    int row_elems_;
    std::size_t elem_bytes_;
    int base_ = 0; ///< first row covered by buffer_
    int extent_ = 0;
    std::vector<std::byte> buffer_;
};

}  // namespace dynmpi
