#include "apps/jacobi.hpp"

#include "support/error.hpp"

namespace dynmpi::apps {

namespace {

/// Deterministic initial condition, independent of the distribution.
/// Deliberately non-harmonic so the sweeps actually change the field.
double initial_value(int row, int col) {
    return 1.0 + 0.1 * ((row % 7) * (col % 5)) + 0.001 * row;
}

}  // namespace

JacobiResult run_jacobi(msg::Rank& rank, const JacobiConfig& config) {
    DYNMPI_REQUIRE(config.cols_math >= 3, "stencil needs at least 3 columns");
    DYNMPI_REQUIRE(config.cols_math <= config.cols_stored,
                   "cols_math must fit in cols_stored");
    const int n = config.rows;
    const int w = config.cols_math;
    const std::size_t row_bytes =
        static_cast<std::size_t>(config.cols_stored) * sizeof(double);
    const std::size_t math_bytes = static_cast<std::size_t>(w) * sizeof(double);

    Runtime rt(rank, n, config.runtime);
    DenseArray* grid[2] = {
        &rt.register_dense("A", config.cols_stored, sizeof(double)),
        &rt.register_dense("B", config.cols_stored, sizeof(double)),
    };
    int ph = rt.init_phase(
        0, n, PhaseComm{CommPattern::NearestNeighbor, row_bytes});
    for (const char* name : {"A", "B"}) {
        rt.add_array_access(name, AccessMode::Write, ph, 1, 0);
        rt.add_array_access(name, AccessMode::Read, ph, 1, -1);
        rt.add_array_access(name, AccessMode::Read, ph, 1, +1);
    }
    rt.commit_setup();

    // Initialize all held rows (ghosts included) deterministically.
    for (DenseArray* g : grid)
        for (int r : g->held().to_vector()) {
            double* row = g->row_ptr<double>(r);
            for (int c = 0; c < config.cols_stored; ++c)
                row[c] = initial_value(r, c);
        }

    std::vector<double> costs;
    for (int cycle = 0; cycle < config.cycles; ++cycle) {
        fire_hook(config.on_cycle, rank, cycle);
        rt.begin_cycle();
        if (rt.participating()) {
            DenseArray& read = *grid[cycle % 2];
            DenseArray& write = *grid[(cycle + 1) % 2];
            const int rel = rt.rel_rank();
            const int nact = rt.num_active();
            const int lo = rt.start_iter(ph);
            const int hi = rt.end_iter(ph); // inclusive

            // Halo exchange on the read array (paper Figure 1 pattern): the
            // math stripe is copied, the stored row charged (jacobi.hpp).
            if (rel > 0)
                rt.send_rel(rel - 1, 10, read.row_data(lo), math_bytes,
                            row_bytes);
            if (rel < nact - 1)
                rt.send_rel(rel + 1, 11, read.row_data(hi), math_bytes,
                            row_bytes);
            if (rel < nact - 1)
                rt.recv_rel(rel + 1, 10, read.row_data(hi + 1), row_bytes);
            if (rel > 0)
                rt.recv_rel(rel - 1, 11, read.row_data(lo - 1), row_bytes);

            // Real stencil on the math stripe only: columns [w, cols_stored)
            // are never written after init (see jacobi.hpp).  Reads go
            // through the non-const row view, so they mark rows dirty as
            // element reads always have and replica deltas stay the same.
            for (int i = lo; i <= hi; ++i) {
                if (i == 0 || i == n - 1) {
                    // Dirichlet boundary rows stay fixed.
                    std::memcpy(write.row_data(i), read.row_data(i),
                                static_cast<std::size_t>(w) * sizeof(double));
                    continue;
                }
                const double* up = read.row_ptr<double>(i - 1);
                const double* mid = read.row_ptr<double>(i);
                const double* down = read.row_ptr<double>(i + 1);
                double* out = write.row_ptr<double>(i);
                out[0] = mid[0]; // fixed stripe edges
                for (int j = 1; j < w - 1; ++j)
                    out[j] = 0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
                out[w - 1] = mid[w - 1];
            }

            // Charge the paper-scale virtual cost.
            costs.assign(static_cast<std::size_t>(rt.my_iters(ph).count()),
                         config.sec_per_row);
            rt.run_phase(ph, costs);
        }
        rt.end_cycle();
    }

    // Checksum over the final read array (the one written last).
    const DenseArray& last = *grid[config.cycles % 2];
    const std::vector<int> mine = rt.my_iters(ph).to_vector();
    double local = 0.0;
    for (int r : mine) {
        const double* row = last.row_ptr<double>(r);
        for (int c = 0; c < w; ++c) local += row[c];
    }
    double sum = rt.allreduce_active(local, msg::OpSum{});

    // Local only: a further collective would move the virtual end time.
    double stored = 0.0;
    for (const DenseArray* g : grid)
        for (int r : mine) {
            const double* row = g->row_ptr<double>(r);
            for (int c = w; c < config.cols_stored; ++c) stored += row[c];
        }

    JacobiResult out;
    out.checksum = sum;
    out.stored_checksum = stored;
    fill_common_result(out, rt);
    return out;
}

}  // namespace dynmpi::apps
