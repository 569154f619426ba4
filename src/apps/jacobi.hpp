// Jacobi iteration (paper §5.1, §5.2): the five-point stencil PDE solver.
//
// Two dense arrays ping-pong as read/write targets each phase cycle; the
// boundary rows of the read array are exchanged with nearest neighbors.  The
// paper runs 2048x2048 doubles for 250 iterations; the default virtual cost
// model reproduces that scale while the real arithmetic runs on a narrower
// stored stripe (cols_math <= cols_stored).
//
// Stripe contract: each cycle writes only columns [0, cols_math) of a row —
// columns 0 and cols_math-1 are copied, the stencil fills the ones between.
// Columns [cols_math, cols_stored) are written once, at init, with the same
// values in both arrays, and never again.  They stay correct because whole
// rows travel together everywhere a row changes hands: redistribution
// payloads, halo exchange and replica restore all carry all cols_stored
// columns, so the virtual cost of moving a row is the paper-scale one.
#pragma once

#include "apps/app_common.hpp"

namespace dynmpi::apps {

struct JacobiConfig {
    int rows = 256;        ///< distributed dimension (paper: 2048)
    int cols_stored = 64;  ///< stored row width (redistribution payload)
    int cols_math = 32;    ///< columns the real stencil touches
    int cycles = 50;       ///< phase cycles (paper: 250)
    double sec_per_row = 1e-4; ///< unloaded reference cost per row per cycle
    RuntimeOptions runtime;
    CycleHook on_cycle;
};

struct JacobiResult : AppResult {
    // checksum = global sum of the final read array's math stripe.
    /// This rank's sum of columns [cols_math, cols_stored) over its owned
    /// rows of both arrays — constant under the stripe contract above.
    double stored_checksum = 0.0;
};

/// SPMD body; call from every rank of a Machine.
JacobiResult run_jacobi(msg::Rank& rank, const JacobiConfig& config);

}  // namespace dynmpi::apps
