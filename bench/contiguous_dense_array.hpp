// The Figure 3 baseline that paper §4.1 argues against: a node's local
// block of a dense array lives in one flat allocation spanning the held
// rows, so any change of extent reallocates and copies everything (the
// shaded cells of Figure 3).  The library allocates by 2-D projection
// (dynmpi/dense_array.hpp); this class exists only for the allocation
// ablation (ablation_alloc) and its tests, which compare the two.
#pragma once

#include "dynmpi/dist_array.hpp"

namespace dynmpi {

/// Baseline allocator: the local block lives in one contiguous buffer.
/// Changing the held extent reallocates the whole buffer and copies the
/// surviving data.
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
    RowSet unpack_rows(const std::vector<std::byte>& data) override;
    void drop_rows(const RowSet& rows) override;
    void ensure_rows(const RowSet& rows) override;
    std::unique_ptr<DistArray> empty_like() const override {
        return std::make_unique<ContiguousDenseArray>(name_, global_rows_,
                                                      row_elems_, elem_bytes_);
    }
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
