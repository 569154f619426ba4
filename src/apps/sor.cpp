#include "apps/sor.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dynmpi::apps {

namespace {
double initial_value(int row, int col) {
    return (row % 7) * 0.125 + (col % 5) * 0.25;
}
}  // namespace

SorResult run_sor(msg::Rank& rank, const SorConfig& config) {
    DYNMPI_REQUIRE(config.cols_math >= 3, "stencil needs at least 3 columns");
    DYNMPI_REQUIRE(config.cols_math <= config.cols_stored,
                   "cols_math must fit in cols_stored");
    const int n = config.rows;
    const int w = config.cols_math;
    const std::size_t row_bytes =
        static_cast<std::size_t>(config.cols_stored) * sizeof(double);

    Runtime rt(rank, n, config.runtime);
    DenseArray& U = rt.register_dense("U", config.cols_stored, sizeof(double));
    // Two phases per cycle: the red and black half-sweeps.
    int ph_red = rt.init_phase(
        0, n, PhaseComm{CommPattern::NearestNeighbor, row_bytes});
    int ph_black = rt.init_phase(
        0, n, PhaseComm{CommPattern::NearestNeighbor, row_bytes});
    for (int ph : {ph_red, ph_black}) {
        rt.add_array_access("U", AccessMode::Write, ph, 1, 0);
        rt.add_array_access("U", AccessMode::Read, ph, 1, -1);
        rt.add_array_access("U", AccessMode::Read, ph, 1, +1);
    }
    rt.commit_setup();

    for (int r : U.held().to_vector()) {
        double* row = U.row_ptr<double>(r);
        for (int c = 0; c < config.cols_stored; ++c)
            row[c] = initial_value(r, c);
    }

    auto exchange_halo = [&](int tag_base) {
        const int rel = rt.rel_rank();
        const int nact = rt.num_active();
        const int lo = rt.start_iter(ph_red);
        const int hi = rt.end_iter(ph_red);
        std::vector<std::byte> ghost(row_bytes);
        if (rel > 0)
            rt.send_rel(rel - 1, tag_base, U.row_data(lo), row_bytes);
        if (rel < nact - 1)
            rt.send_rel(rel + 1, tag_base + 1, U.row_data(hi), row_bytes);
        if (rel < nact - 1) {
            rt.recv_rel(rel + 1, tag_base, ghost.data(), row_bytes);
            std::memcpy(U.row_data(hi + 1), ghost.data(), row_bytes);
        }
        if (rel > 0) {
            rt.recv_rel(rel - 1, tag_base + 1, ghost.data(), row_bytes);
            std::memcpy(U.row_data(lo - 1), ghost.data(), row_bytes);
        }
    };

    auto sweep = [&](int color) {
        const int lo = rt.start_iter(ph_red);
        const int hi = rt.end_iter(ph_red);
        for (int i = std::max(lo, 1); i <= std::min(hi, n - 2); ++i) {
            // First column of this colour in [1, w-1); a row with none is
            // not touched at all, so it is not marked dirty either.
            const int j0 = (i + 1) % 2 == color ? 1 : 2;
            if (j0 >= w - 1) continue;
            const double* up = U.row_ptr<double>(i - 1);
            double* mid = U.row_ptr<double>(i);
            const double* down = U.row_ptr<double>(i + 1);
            for (int j = j0; j < w - 1; j += 2) {
                double gs =
                    0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
                mid[j] = (1.0 - config.omega) * mid[j] + config.omega * gs;
            }
        }
    };

    for (int cycle = 0; cycle < config.cycles; ++cycle) {
        fire_hook(config.on_cycle, rank, cycle);
        rt.begin_cycle();
        if (rt.participating()) {
            std::vector<double> half_costs(
                static_cast<std::size_t>(rt.my_iters(ph_red).count()),
                config.sec_per_row / 2.0);

            exchange_halo(20);
            sweep(0);
            rt.run_phase(ph_red, half_costs);

            exchange_halo(22);
            sweep(1);
            rt.run_phase(ph_black, half_costs);
        }
        rt.end_cycle();
    }

    double local = 0.0;
    for (int r : rt.my_iters(ph_red).to_vector())
        for (int c = 0; c < w; ++c) local += U.at<double>(r, c);
    double sum = rt.allreduce_active(local, msg::OpSum{});

    SorResult out;
    out.checksum = sum;
    fill_common_result(out, rt);
    return out;
}

}  // namespace dynmpi::apps
