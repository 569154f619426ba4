// Heterogeneous clusters: static speed differences are the other half of
// "relative power" — the runtime must fold node speed into every decision
// alongside the dynamic load.
#include <gtest/gtest.h>

#include <numeric>

#include "common/cluster_fixture.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

sim::ClusterConfig hetero(std::vector<double> speeds) {
    sim::ClusterConfig c = fast_cluster(static_cast<int>(speeds.size()));
    c.speeds = std::move(speeds);
    return c;
}

struct Outcome {
    std::vector<int> counts;
    int redists = 0;
    double elapsed = 0;
};

Outcome run(sim::ClusterConfig cc, int rows, int cycles, double row_cost,
            std::function<void(msg::Machine&)> setup = {}) {
    msg::Machine m(cc);
    if (setup) setup(m);
    Outcome out;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, rows, o);
        rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(0, rows, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int c = 0; c < cycles; ++c) {
            rt.begin_cycle();
            std::vector<double> costs(
                static_cast<std::size_t>(rt.my_iters(ph).count()), row_cost);
            rt.run_phase(ph, costs);
            rt.end_cycle();
        }
        if (r.id() == 0) {
            out.counts = rt.distribution().counts();
            out.redists = rt.stats().redistributions;
        }
    });
    out.elapsed = m.elapsed_seconds();
    return out;
}

TEST(Heterogeneous, FastNodeEndsUpWithProportionalBlock) {
    // 2x-speed node: after a load event triggers measurement, the measured
    // per-row costs plus speeds give it ~2x the rows.
    auto out = run(hetero({2.0, 1.0, 1.0}), 64, 80, 5e-3,
                   [](msg::Machine& m) {
                       m.cluster().add_load_interval(1, 0.5, 2.0);
                   });
    EXPECT_GE(out.redists, 1);
    ASSERT_EQ(out.counts.size(), 3u);
    // After the CP clears, the 2x node should hold roughly twice the rows.
    EXPECT_NEAR(out.counts[0], 32, 4);
    EXPECT_NEAR(out.counts[1], 16, 4);
}

TEST(Heterogeneous, SpeedAndLoadCompose) {
    // Fast unloaded node (power 2) vs slow node with one competitor (power
    // 0.5): a 4:1 block ratio.
    auto out = run(hetero({2.0, 1.0}), 50, 80, 5e-3, [](msg::Machine& m) {
        m.cluster().add_load_interval(1, 0.5, -1.0, 1);
    });
    EXPECT_GE(out.redists, 1);
    ASSERT_EQ(out.counts.size(), 2u);
    EXPECT_NEAR(out.counts[0], 40, 4);
    EXPECT_NEAR(out.counts[1], 10, 4);
}

TEST(Heterogeneous, BalancedPowersNeedNoRedistribution) {
    // A fast node with one competitor has effective power 2/2 = 1, same as a
    // slow unloaded node: the even initial split is already right, and the
    // runtime should *recognize* that instead of redistributing.
    auto out = run(hetero({2.0, 1.0}), 48, 80, 5e-3, [](msg::Machine& m) {
        m.cluster().add_load_interval(0, 0.5, -1.0, 1);
    });
    EXPECT_EQ(out.redists, 0);
    EXPECT_EQ(out.counts[0], out.counts[1]);
}

TEST(Heterogeneous, MeasurementsNormalizeBySpeed) {
    // The IterationTimer must report reference-CPU seconds: a row on the
    // slow (0.5x) node takes 2x wall but must estimate the same cost.
    msg::Machine m(hetero({1.0, 0.5}));
    m.cluster().add_load_interval(0, 0.5, -1.0); // trigger measurement
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, 32, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 32, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int c = 0; c < 50; ++c) {
            rt.begin_cycle();
            std::vector<double> costs(
                static_cast<std::size_t>(rt.my_iters(ph).count()), 2e-2);
            rt.run_phase(ph, costs);
            rt.end_cycle();
        }
        const auto& est = rt.last_row_costs();
        ASSERT_EQ(est.size(), 32u);
        // All rows cost 20 ms reference regardless of who measured them.
        double lo = *std::min_element(est.begin(), est.end());
        double hi = *std::max_element(est.begin(), est.end());
        EXPECT_GT(lo, 0.015);
        EXPECT_LT(hi, 0.025);
    });
}

}  // namespace
}  // namespace dynmpi
