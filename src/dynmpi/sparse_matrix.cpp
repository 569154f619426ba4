#include "dynmpi/sparse_matrix.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

namespace dynmpi {

SparseMatrix::SparseMatrix(std::string name, int global_rows, int global_cols)
    : DistArray(std::move(name), global_rows),
      global_cols_(global_cols),
      rows_(global_rows_) {
    DYNMPI_REQUIRE(global_cols_ > 0, "matrix needs at least one column");
}

namespace {

/// First entry of `row` whose column is not below `col`.
template <typename Row>
auto find_col(Row& row, int col) {
    return std::lower_bound(
        row.begin(), row.end(), col,
        [](const SparseEntry& e, int c) { return e.col < c; });
}

}  // namespace

void SparseMatrix::set(int row, int col, double value) {
    DYNMPI_REQUIRE(col >= 0 && col < global_cols_, "column out of range");
    RowList& entries = row_mut(row);
    auto it = find_col(entries, col);
    if (it != entries.end() && it->col == col)
        it->value = value;
    else
        entries.insert(it, SparseEntry{col, value});
    mark_row_dirty(row);
}

double SparseMatrix::get(int row, int col) const {
    const RowList& entries = this->row(row);
    auto it = find_col(entries, col);
    return it != entries.end() && it->col == col ? it->value : 0.0;
}

bool SparseMatrix::erase(int row, int col) {
    RowList& entries = row_mut(row);
    auto it = find_col(entries, col);
    if (it == entries.end() || it->col != col) return false;
    entries.erase(it);
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
        enter_row();
    }
    skip_empty_rows();
}

void SparseMatrix::Cursor::enter_row() {
    RowList& entries = m_.row_mut(row_);
    elem_ = entries.begin();
    end_ = entries.end();
}

void SparseMatrix::Cursor::step_row() {
    if (++row_ == held_[iv_].hi && ++iv_ < held_.size()) row_ = held_[iv_].lo;
    if (!at_end()) enter_row();
}

void SparseMatrix::Cursor::skip_empty_rows() {
    while (!at_end() && elem_ == end_) step_row();
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
    // A row's entries are contiguous, so each one goes into the flat wire
    // vector (paper §4.4: a row "must be packed into a vector" before
    // transfer) in one copy.  The buffer is sized by an exact precount so
    // the write pass never reallocates.
    std::size_t total = 4;
    for (const RowInterval& iv : rows.intervals())
        for (int r = iv.lo; r < iv.hi; ++r)
            total += 12 + row(r).size() * sizeof(SparseEntry);
    WireWriter out(total);
    out.u32(static_cast<std::uint32_t>(rows.count()));
    for (const RowInterval& iv : rows.intervals()) {
        for (int r = iv.lo; r < iv.hi; ++r) {
            const RowList& entries = *rows_.find(r);
            const std::size_t nbytes = entries.size() * sizeof(SparseEntry);
            out.u32(static_cast<std::uint32_t>(r));
            out.u64(nbytes);
            out.bytes(entries.data(), nbytes);
        }
    }
    return out.take();
}

RowSet SparseMatrix::unpack_rows(const std::vector<std::byte>& data) {
    // Validate the whole buffer first (row ids, sizes and every column), so
    // a malformed one changes nothing and the table is sized once.  Every
    // column must lie inside [0, global_cols) and ascend strictly.
    RowSet rows;
    WireReader check(data);
    for (std::uint32_t k = check.u32(); k > 0; --k) {
        const int row = static_cast<int>(check.u32());
        const std::uint64_t nbytes = check.u64();
        DYNMPI_REQUIRE(row >= 0 && row < global_rows_,
                       "unpacked row id out of range for " + name_);
        DYNMPI_REQUIRE(nbytes % sizeof(SparseEntry) == 0,
                       "row payload size does not fit " + name_);
        rows.add_row(row);
        const std::byte* payload = check.bytes(nbytes);
        int prev = -1;
        for (std::uint64_t at = offsetof(SparseEntry, col); at < nbytes;
             at += sizeof(SparseEntry)) {
            int col;
            std::memcpy(&col, payload + at, sizeof col);
            DYNMPI_REQUIRE(col > prev && col < global_cols_,
                           "unpacked column out of range or order for " +
                               name_);
            prev = col;
        }
    }
    check.finish();
    if (!rows.empty()) rows_.cover(held_, rows.first(), rows.last() + 1);
    WireReader in(data);
    for (std::uint32_t k = in.u32(); k > 0; --k) {
        const int r = static_cast<int>(in.u32());
        const std::uint64_t nbytes = in.u64();
        auto& slot = rows_.slot(r);
        if (!slot) {
            slot = std::make_unique<RowList>();
            ++stats_.rows_allocated;
        }
        // Wire order is column order.  Copying whole entries keeps their
        // bytes verbatim, so a re-pack reproduces the wire exactly.
        slot->resize(nbytes / sizeof(SparseEntry));
        if (nbytes > 0) std::memcpy(slot->data(), in.bytes(nbytes), nbytes);
        mark_row_dirty(r);
    }
    held_.add(rows);
    return rows;
}

void SparseMatrix::drop_rows(const RowSet& rows) {
    // One row per block, and no row of `rows` stays held.
    stats_.rows_freed += static_cast<std::uint64_t>(
        rows_.erase(rows, [](int, int) { return false; }));
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
