#include "apps/particle.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dynmpi::apps {

ParticleResult run_particle(msg::Rank& rank, const ParticleConfig& config) {
    const int n = config.rows;
    const int w = config.cols;
    const std::size_t row_bytes = static_cast<std::size_t>(w) * sizeof(double);

    Runtime rt(rank, n, config.runtime);
    DenseArray& P = rt.register_dense("particles", w, sizeof(double));
    int ph = rt.init_phase(
        0, n, PhaseComm{CommPattern::NearestNeighbor, row_bytes});
    rt.add_array_access("particles", AccessMode::Write, ph, 1, 0);
    rt.commit_setup();

    for (int r : rt.my_iters(ph).to_vector()) {
        double density =
            r < config.boost_rows ? config.boost_density : config.base_density;
        double* row = P.row_ptr<double>(r);
        for (int c = 0; c < w; ++c) row[c] = density;
    }

    std::vector<double> up_out(static_cast<std::size_t>(w));
    std::vector<double> down_out(static_cast<std::size_t>(w));

    for (int cycle = 0; cycle < config.cycles; ++cycle) {
        fire_hook(config.on_cycle, rank, cycle);
        rt.begin_cycle();
        if (rt.participating()) {
            const int rel = rt.rel_rank();
            const int nact = rt.num_active();
            const int lo = rt.start_iter(ph);
            const int hi = rt.end_iter(ph);

            // Per-row virtual cost before the move (cost tracks current
            // occupancy, like collision work in MP3D).
            std::vector<double> costs;
            std::vector<int> my_rows = rt.my_iters(ph).to_vector();
            costs.reserve(my_rows.size());
            for (int r : my_rows) {
                const double* row = P.row_ptr<double>(r);
                double mass = 0.0;
                for (int c = 0; c < w; ++c) mass += row[c];
                costs.push_back(config.sec_per_row_base +
                                config.sec_per_particle * mass);
            }

            // Diffusion step: each interior row sends a fraction f of its
            // mass to each neighboring row; global boundary rows reflect.
            constexpr double f = 0.15;
            std::fill(up_out.begin(), up_out.end(), 0.0);
            std::fill(down_out.begin(), down_out.end(), 0.0);
            // Flows between rows inside my block, accumulated in a scratch
            // delta to keep the update order-independent.
            std::vector<std::vector<double>> delta(
                my_rows.size(), std::vector<double>(static_cast<size_t>(w)));
            for (std::size_t k = 0; k < my_rows.size(); ++k) {
                int r = my_rows[k];
                const double* row = P.row_ptr<double>(r);
                for (int c = 0; c < w; ++c) {
                    double m = row[c];
                    double to_up = r > 0 ? f * m : 0.0;
                    double to_down = r < n - 1 ? f * m : 0.0;
                    delta[k][(size_t)c] -= to_up + to_down;
                    if (r > 0) {
                        if (r - 1 >= lo)
                            delta[k - 1][(size_t)c] += to_up;
                        else
                            up_out[(size_t)c] += to_up;
                    }
                    if (r < n - 1) {
                        if (r + 1 <= hi)
                            delta[k + 1][(size_t)c] += to_down;
                        else
                            down_out[(size_t)c] += to_down;
                    }
                }
            }
            // Ship boundary flows to the relative-rank neighbors.
            if (rel > 0)
                rt.send_rel(rel - 1, 30, up_out.data(), row_bytes);
            if (rel < nact - 1)
                rt.send_rel(rel + 1, 31, down_out.data(), row_bytes);
            std::vector<double> inflow(static_cast<std::size_t>(w));
            if (rel < nact - 1) {
                rt.recv_rel(rel + 1, 30, inflow.data(), row_bytes);
                for (int c = 0; c < w; ++c)
                    delta.back()[(size_t)c] += inflow[(size_t)c];
            }
            if (rel > 0) {
                rt.recv_rel(rel - 1, 31, inflow.data(), row_bytes);
                for (int c = 0; c < w; ++c)
                    delta.front()[(size_t)c] += inflow[(size_t)c];
            }
            for (std::size_t k = 0; k < my_rows.size(); ++k) {
                double* row = P.row_ptr<double>(my_rows[k]);
                for (int c = 0; c < w; ++c) row[c] += delta[k][(size_t)c];
            }

            rt.run_phase(ph, costs);
        }
        rt.end_cycle();
    }

    double local_mass = 0.0, local_max_row = 0.0;
    for (int r : rt.my_iters(ph).to_vector()) {
        double row_mass = 0.0;
        for (int c = 0; c < w; ++c) row_mass += P.at<double>(r, c);
        local_mass += row_mass;
        local_max_row = std::max(local_max_row, row_mass);
    }
    ParticleResult out;
    out.total_mass = rt.allreduce_active(local_mass, msg::OpSum{});
    out.max_row_mass = rt.allreduce_active(local_max_row, msg::OpMax{});
    out.checksum = out.total_mass;
    fill_common_result(out, rt);
    return out;
}

}  // namespace dynmpi::apps
