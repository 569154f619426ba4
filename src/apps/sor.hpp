// Red-Black Successive Over-Relaxation (paper §5.1, §5.3).
//
// One dense array, two half-sweeps (red then black) per phase cycle, each
// preceded by a boundary exchange — twice the communication of Jacobi for
// half the per-sweep compute, which is exactly why the paper uses SOR for
// the node-removal study (smaller computation/communication ratio).
//
// The stripe contract is Jacobi's (jacobi.hpp): the sweeps touch only
// columns [0, cols_math), and a halo copies that stripe but charges the
// whole stored row.  A ghost row's filler is stale by design and never
// read; redistribution and replica packs still carry whole owned rows.
#pragma once

#include "apps/app_common.hpp"

namespace dynmpi::apps {

struct SorConfig {
    int rows = 256;       ///< paper §5.3: 1024
    int cols_stored = 64;
    int cols_math = 32;
    int cycles = 50;
    double sec_per_row = 1e-4; ///< per full cycle (split across sweeps)
    RuntimeOptions runtime;
    CycleHook on_cycle;
};

struct SorResult : AppResult {
    // checksum = global sum of the final grid's math stripe.
};

SorResult run_sor(msg::Rank& rank, const SorConfig& config);

}  // namespace dynmpi::apps
