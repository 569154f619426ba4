#include "dynmpi/sparse_matrix.hpp"

#include <algorithm>
#include <cstring>

namespace dynmpi {

SparseMatrix::SparseMatrix(std::string name, int global_rows, int global_cols)
    : DistArray(std::move(name), global_rows),
      global_cols_(global_cols),
      rows_(global_rows_) {
    DYNMPI_REQUIRE(global_cols_ > 0, "matrix needs at least one column");
}

void SparseMatrix::set(int row, int col, double value) {
    DYNMPI_REQUIRE(col >= 0 && col < global_cols_, "column out of range");
    RowList& list = row_mut(row);
    auto it = std::find_if(list.begin(), list.end(),
                           [col](const SparseEntry& e) { return e.col >= col; });
    if (it != list.end() && it->col == col)
        it->value = value;
    else
        list.insert(it, SparseEntry{col, value});
    mark_row_dirty(row);
}

double SparseMatrix::get(int row, int col) const {
    const RowList& list = this->row(row);
    for (const auto& e : list) {
        if (e.col == col) return e.value;
        if (e.col > col) break;
    }
    return 0.0;
}

bool SparseMatrix::erase(int row, int col) {
    RowList& list = row_mut(row);
    auto it = std::find_if(list.begin(), list.end(),
                           [col](const SparseEntry& e) { return e.col == col; });
    if (it == list.end()) return false;
    list.erase(it);
    mark_row_dirty(row);
    return true;
}

int SparseMatrix::row_nnz(int r) const {
    return static_cast<int>(row(r).size());
}

int SparseMatrix::nnz() const {
    int n = 0;
    for (const RowInterval& iv : held_.intervals())
        for (int r = iv.lo; r < iv.hi; ++r)
            n += static_cast<int>(rows_.find(r)->size());
    return n;
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

SparseMatrix::Cursor::Cursor(SparseMatrix& m) : m_(m) { move_first(); }

void SparseMatrix::Cursor::move_first() {
    held_ = m_.held().intervals();
    iv_ = 0;
    if (!held_.empty()) {
        row_ = held_[0].lo;
        elem_ = m_.row_mut(row_).begin();
    }
    skip_empty_rows();
}

void SparseMatrix::Cursor::step_row() {
    if (++row_ == held_[iv_].hi && ++iv_ < held_.size()) row_ = held_[iv_].lo;
    if (!at_end()) elem_ = m_.row_mut(row_).begin();
}

void SparseMatrix::Cursor::skip_empty_rows() {
    while (!at_end() && elem_ == m_.row_mut(row_).end()) step_row();
}

bool SparseMatrix::Cursor::at_end() const { return iv_ >= held_.size(); }

int SparseMatrix::Cursor::current_row() const {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    return row_;
}

const SparseEntry& SparseMatrix::Cursor::current() const {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    return *elem_;
}

SparseEntry SparseMatrix::Cursor::next() {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    SparseEntry e = *elem_;
    ++elem_;
    skip_empty_rows();
    return e;
}

void SparseMatrix::Cursor::set_next(double value) {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    elem_->value = value;
    m_.mark_row_dirty(row_);
    ++elem_;
    skip_empty_rows();
}

void SparseMatrix::Cursor::advance_row() {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    step_row();
    skip_empty_rows();
}

// ---------------------------------------------------------------------------
// DistArray interface
// ---------------------------------------------------------------------------

std::vector<std::byte> SparseMatrix::pack_rows(const RowSet& rows) const {
    // Pack each linked-list row into the flat wire vector (paper §4.4: a row
    // "must be packed into a vector" before transfer).  The buffer is sized
    // by an exact precount so the write pass never reallocates.
    std::size_t total = 4;
    for (const RowInterval& iv : rows.intervals())
        for (int r = iv.lo; r < iv.hi; ++r)
            total += 12 + row(r).size() * sizeof(SparseEntry);
    WireWriter out(total);
    out.u32(static_cast<std::uint32_t>(rows.count()));
    for (const RowInterval& iv : rows.intervals()) {
        for (int r = iv.lo; r < iv.hi; ++r) {
            const RowList& list = *rows_.find(r);
            out.u32(static_cast<std::uint32_t>(r));
            out.u64(list.size() * sizeof(SparseEntry));
            for (const auto& e : list) out.bytes(&e, sizeof(SparseEntry));
        }
    }
    std::vector<std::byte> packed = out.take();
    stats_.bytes_packed += packed.size();
    return packed;
}

RowSet SparseMatrix::unpack_rows(const std::vector<std::byte>& data) {
    // Validate the whole buffer first, so a malformed one changes nothing
    // and the table is sized once.
    const RowSet rows = framed_rows(data, sizeof(SparseEntry),
                                    /*one_unit=*/false);
    if (!rows.empty()) rows_.cover(held_, rows.first(), rows.last() + 1);
    WireReader in(data);
    for (std::uint32_t k = in.u32(); k > 0; --k) {
        const int r = static_cast<int>(in.u32());
        const std::size_t count = in.u64() / sizeof(SparseEntry);
        auto& slot = rows_.slot(r);
        if (!slot) {
            slot = std::make_unique<RowList>();
            ++stats_.rows_allocated;
        }
        slot->clear();
        for (std::size_t i = 0; i < count; ++i) {
            // Wire order is column order.  Copying the whole entry keeps
            // its bytes verbatim, so a re-pack reproduces the wire exactly.
            std::memcpy(&slot->emplace_back(),
                        in.bytes(sizeof(SparseEntry)), sizeof(SparseEntry));
        }
        mark_row_dirty(r);
    }
    held_.add(rows);
    stats_.bytes_unpacked += data.size();
    return rows;
}

void SparseMatrix::drop_rows(const RowSet& rows) {
    stats_.rows_freed += static_cast<std::uint64_t>(rows_.erase(rows));
    held_.subtract_with(rows);
    rows_.fit(held_);
}

void SparseMatrix::ensure_rows(const RowSet& rows) {
    if (rows.empty()) return;
    DYNMPI_REQUIRE(rows.first() >= 0 && rows.last() < global_rows_,
                   "row out of range");
    rows_.cover(held_, rows.first(), rows.last() + 1);
    for (const RowInterval& iv : rows.intervals())
        for (int r = iv.lo; r < iv.hi; ++r) {
            auto& slot = rows_.slot(r);
            if (slot) continue;
            slot = std::make_unique<RowList>();
            ++stats_.rows_allocated;
            mark_row_dirty(r);
        }
    held_.add(rows);
}

}  // namespace dynmpi
