// Deferred Regular Section Descriptors (paper §2.2).
//
// A DRSD records, symbolically, which rows of a registered array a loop
// iteration touches: row = a*i + b for iteration i, with the iteration
// bounds deferred to run time.  Expanding a node's DRSDs over its assigned
// iteration set yields exactly the rows that node must hold — the input to
// both ownership computation and redistribution message scheduling
// (paper §4.4).
#pragma once

#include <string>
#include <vector>

#include "dynmpi/row_set.hpp"

namespace dynmpi {

enum class AccessMode { Read, Write };

/// One array reference in a parallel loop: array[a*i + b] for iteration i.
struct Drsd {
    std::string array;
    AccessMode mode = AccessMode::Read;
    int phase = 0;
    int a = 1; ///< iteration coefficient
    int b = 0; ///< offset (b = ±1 expresses nearest-neighbor ghost reads)
};

/// Rows touched by `d` when executing the iterations in `iters`.
/// Requires a != 0; results are clipped to [0, global_rows).
RowSet rows_touched(const Drsd& d, const RowSet& iters, int global_rows);

}  // namespace dynmpi
