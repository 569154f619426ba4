// Particle simulation (paper §5.1, §5.4) — a scaled-down MP3D-style code.
//
// A rows×cols grid of cells carries particle mass, distributed by grid rows.
// Each time step a fixed fraction of every cell's particles diffuses to the
// neighboring rows; mass crossing a block boundary is shipped to the
// neighbor.  Per-row compute cost is proportional to the particles in the
// row, so the computation is *unbalanced* and shifts over time — the
// workload the paper uses to exercise per-iteration timing (Figure 7) and
// an initially skewed load (Figure 4: one node starts with twice the
// particles).
//
// Total mass is conserved exactly (checksum), which makes redistribution
// correctness observable end to end.
#pragma once

#include "apps/app_common.hpp"

namespace dynmpi::apps {

struct ParticleConfig {
    int rows = 64;  ///< grid rows (paper: 256)
    int cols = 64;  ///< grid cols (paper: 256)
    int cycles = 50; ///< time steps (paper: 200)
    double base_density = 1.0; ///< particles per cell
    /// Rows [0, boost_rows) start with `boost_density` particles per cell
    /// (Figure 4: first node's rows at 2x; Figure 7: Part=10/50 on the top
    /// half of P0's rows).
    int boost_rows = 0;
    double boost_density = 1.0;
    double sec_per_particle = 2e-6;
    double sec_per_row_base = 1e-6;
    RuntimeOptions runtime;
    CycleHook on_cycle;
};

struct ParticleResult : AppResult {
    double total_mass = 0.0; ///< checksum; conserved across the run
    double max_row_mass = 0.0;
};

ParticleResult run_particle(msg::Rank& rank, const ParticleConfig& config);

}  // namespace dynmpi::apps
