#include "dynmpi/dist_array.hpp"

#include <cstring>

#include "support/error.hpp"

namespace dynmpi {

DistArray::DistArray(std::string name, int global_rows)
    : name_(std::move(name)), global_rows_(global_rows) {
    DYNMPI_REQUIRE(global_rows_ > 0, "array needs at least one row");
    DYNMPI_REQUIRE(!name_.empty(), "array needs a name");
    dirty_.assign(static_cast<std::size_t>(global_rows_), 0);
}

void DistArray::retain_only(const RowSet& keep) {
    drop_rows(held_.subtract(keep));
}

RowSet DistArray::framed_rows(const std::vector<std::byte>& data,
                              std::uint64_t unit, bool one_unit) const {
    RowSet rows;
    const auto check_header = [&](int row, std::uint64_t nbytes) {
        DYNMPI_REQUIRE(row >= 0 && row < global_rows_,
                       "unpacked row id out of range for " + name_);
        DYNMPI_REQUIRE(one_unit ? nbytes == unit : nbytes % unit == 0,
                       "row payload size does not fit " + name_);
        rows.add_row(row);
    };
    if (one_unit) {
        // Fixed-size records: the count fixes the length, so one check
        // bounds every record and the headers are read in place.
        std::uint32_t nrows = 0;
        DYNMPI_REQUIRE(data.size() >= 4, "truncated wire message");
        std::memcpy(&nrows, data.data(), 4);
        const std::uint64_t body = data.size() - 4;
        DYNMPI_REQUIRE(body % (12 + unit) == 0 && body / (12 + unit) == nrows,
                       "row count does not match the length of " + name_);
        for_each_unit_record(
            data, unit, [&](int row, std::uint64_t nbytes, const std::byte*) {
                check_header(row, nbytes);
            });
        return rows;
    }
    WireReader in(data);
    for (std::uint32_t k = in.u32(); k > 0; --k) {
        const int row = static_cast<int>(in.u32());
        const std::uint64_t nbytes = in.u64();
        check_header(row, nbytes);
        check_payload(in.bytes(nbytes), nbytes);
    }
    in.finish();
    return rows;
}

void DistArray::fail_non_held(int row) const {
    detail::fail("precondition", "row is held", __FILE__, __LINE__,
                 "access to non-held row " + std::to_string(row) + " of " +
                     name_);
}

void DistArray::mark_rows_dirty(const RowSet& rows) {
    for (const RowInterval& iv : rows.intervals())
        for (int r = iv.lo; r < iv.hi; ++r) mark_row_dirty(r);
}

RowSet DistArray::dirty_rows(const RowSet& scope) const {
    RowSet out;
    for (const RowInterval& iv : scope.intervals()) {
        int run = -1;
        for (int r = iv.lo; r < iv.hi; ++r) {
            if (dirty_[static_cast<std::size_t>(r)]) {
                if (run < 0) run = r;
            } else if (run >= 0) {
                out.add(run, r);
                run = -1;
            }
        }
        if (run >= 0) out.add(run, iv.hi);
    }
    return out;
}

void DistArray::clear_dirty(const RowSet& rows) {
    for (const RowInterval& iv : rows.intervals())
        for (int r = iv.lo; r < iv.hi; ++r)
            dirty_[static_cast<std::size_t>(r)] = 0;
}

}  // namespace dynmpi
