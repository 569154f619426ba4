#include "dynmpi/dist_array.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/error.hpp"

namespace dynmpi {

namespace {
/// dirty_rows reads the one-byte row flags eight to a load.
constexpr int kFlagsPerLoad = 8;
constexpr std::uint64_t kAllFlags = 0x0101010101010101ULL;
static_assert(std::endian::native == std::endian::little,
              "next_flag finds the first flag from the low byte up");

/// One fill per interval of `rows`, clipped to [0, limit).
void fill_flags(std::vector<char>& flags, const RowSet& rows, int limit,
                char value) {
    for (const RowInterval& iv : rows.intervals()) {
        const int lo = std::max(iv.lo, 0), hi = std::min(iv.hi, limit);
        if (lo < hi)
            std::memset(flags.data() + lo, value,
                        static_cast<std::size_t>(hi - lo));
    }
}

/// The first row in [from, hi) whose flag is `on`, or hi if none.  Each
/// load may read past hi, into later rows or the padding.
int next_flag(const std::vector<char>& flags, int from, int hi, bool on) {
    const std::uint64_t flip = on ? 0 : kAllFlags;
    for (int r = from; r < hi; r += kFlagsPerLoad) {
        std::uint64_t word = 0;
        std::memcpy(&word, flags.data() + r, kFlagsPerLoad);
        if (const std::uint64_t hits = word ^ flip)
            return std::min(hi, r + std::countr_zero(hits) / 8);
    }
    return hi;
}
}  // namespace

DistArray::DistArray(std::string name, int global_rows)
    : name_(std::move(name)), global_rows_(global_rows) {
    DYNMPI_REQUIRE(global_rows_ > 0, "array needs at least one row");
    DYNMPI_REQUIRE(!name_.empty(), "array needs a name");
    dirty_.assign(static_cast<std::size_t>(global_rows_) + kFlagsPerLoad, 0);
}

void DistArray::retain_only(const RowSet& keep) {
    drop_rows(held_.subtract(keep));
}

RowSet DistArray::framed_rows(const std::vector<std::byte>& data,
                              std::uint64_t unit) const {
    RowSet rows;
    std::uint32_t nrows = 0;
    DYNMPI_REQUIRE(data.size() >= 4, "truncated wire message");
    std::memcpy(&nrows, data.data(), 4);
    const std::uint64_t body = data.size() - 4;
    DYNMPI_REQUIRE(body % (12 + unit) == 0 && body / (12 + unit) == nrows,
                   "row count does not match the length of " + name_);
    for_each_unit_record(
        data, unit, [&](int row, std::uint64_t nbytes, const std::byte*) {
            DYNMPI_REQUIRE(row >= 0 && row < global_rows_,
                           "unpacked row id out of range for " + name_);
            DYNMPI_REQUIRE(nbytes == unit,
                           "row payload size does not fit " + name_);
            rows.add_row(row);
        });
    return rows;
}

void DistArray::fail_non_held(int row) const {
    detail::fail("precondition", "row is held", __FILE__, __LINE__,
                 "access to non-held row " + std::to_string(row) + " of " +
                     name_);
}

void DistArray::mark_rows_dirty(const RowSet& rows) {
    fill_flags(dirty_, rows, global_rows_, 1);
}

RowSet DistArray::dirty_rows(const RowSet& scope) const {
    RowSet out;
    for (const RowInterval& iv : scope.intervals()) {
        const int hi = std::min(iv.hi, global_rows_);
        for (int r = std::max(iv.lo, 0); r < hi;) {
            const int run = next_flag(dirty_, r, hi, true);
            if (run == hi) break;
            r = next_flag(dirty_, run, hi, false);
            out.add(run, r);
        }
    }
    return out;
}

void DistArray::clear_dirty(const RowSet& rows) {
    fill_flags(dirty_, rows, global_rows_, 0);
}

}  // namespace dynmpi
