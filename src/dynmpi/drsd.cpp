#include "dynmpi/drsd.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dynmpi {

RowSet rows_touched(const Drsd& d, const RowSet& iters, int global_rows) {
    DYNMPI_REQUIRE(d.a != 0, "DRSD coefficient must be non-zero");
    RowSet out;
    for (const auto& iv : iters.intervals()) {
        if (d.a == 1) {
            // Fast path: the common unit-stride reference.
            out.add(std::clamp(iv.lo + d.b, 0, global_rows),
                    std::clamp(iv.hi + d.b, 0, global_rows));
        } else {
            for (int i = iv.lo; i < iv.hi; ++i) {
                int row = d.a * i + d.b;
                if (row >= 0 && row < global_rows) out.add(row, row + 1);
            }
        }
    }
    return out;
}

}  // namespace dynmpi
