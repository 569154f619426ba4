#include "apps/particle.hpp"
#include "common/cluster_fixture.hpp"

#include <gtest/gtest.h>

namespace dynmpi::apps {
namespace {

ParticleConfig small_particle() {
    ParticleConfig pc;
    pc.rows = 48;
    pc.cols = 16;
    pc.cycles = 30;
    pc.sec_per_particle = 5e-5;
    pc.runtime.calibrate = false;
    return pc;
}

ParticleResult run_on(int nodes, ParticleConfig pc,
                      std::function<void(msg::Machine&)> setup = {}) {
    msg::Machine m(fast_cluster(nodes));
    if (setup) setup(m);
    ParticleResult out;
    m.run([&](msg::Rank& r) {
        auto res = run_particle(r, pc);
        if (r.id() == 0) out = res;
    });
    return out;
}

TEST(ParticleApp, MassConservedExactly) {
    ParticleConfig pc = small_particle();
    auto res = run_on(3, pc);
    double expected = 48.0 * 16.0 * pc.base_density;
    EXPECT_NEAR(res.total_mass, expected, expected * 1e-9);
}

TEST(ParticleApp, MassConservedAcrossRedistributions) {
    ParticleConfig pc = small_particle();
    pc.cycles = 80;
    pc.boost_rows = 12;
    pc.boost_density = 3.0;
    auto res = run_on(4, pc, [](msg::Machine& m) {
        m.cluster().add_load_interval(1, 0.5, 4.0, 2);
    });
    EXPECT_GE(res.stats.redistributions, 1);
    double expected = (48.0 - 12.0) * 16.0 * 1.0 + 12.0 * 16.0 * 3.0;
    EXPECT_NEAR(res.total_mass, expected, expected * 1e-9);
}

TEST(ParticleApp, DiffusionFlattensImbalance) {
    ParticleConfig pc = small_particle();
    pc.boost_rows = 8;
    pc.boost_density = 10.0;
    pc.cycles = 2;
    auto early = run_on(2, pc);
    pc.cycles = 120;
    auto late = run_on(2, pc);
    EXPECT_LT(late.max_row_mass, early.max_row_mass);
}

TEST(ParticleApp, UnbalancedComputationShiftsDistribution) {
    // Without any competing process, the initial particle imbalance alone is
    // not a load *change* — but once a CP appears and triggers measurement,
    // the per-row costs steer the blocks: the boosted region's owner should
    // get fewer rows than an even split.
    ParticleConfig pc = small_particle();
    pc.rows = 64;
    pc.boost_rows = 16; // node 0's initial block is heavy
    pc.boost_density = 8.0;
    pc.cycles = 90;
    pc.runtime.enable_removal = false;
    auto res = run_on(4, pc, [](msg::Machine& m) {
        m.cluster().add_load_interval(3, 0.5, -1.0, 1);
    });
    ASSERT_EQ(res.final_counts.size(), 4u);
    EXPECT_GE(res.stats.redistributions, 1);
    // Node 0 holds the dense rows: fewer rows than the even 16.
    EXPECT_LT(res.final_counts[0], 16);
}

TEST(ParticleApp, GracePeriodFiveMeasuresRowCostsBetter) {
    // Figure 7's mechanism: short iterations + scheduling jitter make GP=1
    // mis-measure the loaded node's row costs; GP=5's min filter removes the
    // spikes.  Compare the estimated cost of the loaded node's rows (its
    // initial block) against the clean-node estimate of a comparable block.
    auto estimates = [&](int gp) {
        auto c = fast_cluster(4, /*jitter=*/1.0);
        c.cpu.quantum_s = 0.010;
        msg::Machine m(c);
        m.cluster().add_load_interval(1, 0.5, -1.0, 2);
        ParticleConfig pc = small_particle();
        pc.rows = 64;
        pc.cycles = 40;
        pc.sec_per_particle = 2e-4; // 3ms rows: below the /proc threshold
        pc.runtime.enable_removal = false;
        pc.runtime.grace_cycles = gp;
        pc.runtime.max_redistributions = 1;
        ParticleResult out;
        m.run([&](msg::Rank& r) {
            auto res = run_particle(r, pc);
            if (r.id() == 0) out = res;
        });
        return out.last_row_costs;
    };
    auto e1 = estimates(1);
    auto e5 = estimates(5);
    ASSERT_EQ(e1.size(), 64u);
    ASSERT_EQ(e5.size(), 64u);
    // Node 1's initial block is rows [16, 32): the only jitter-affected rows.
    auto block_sum = [](const std::vector<double>& v, int lo, int hi) {
        double s = 0;
        for (int i = lo; i < hi; ++i) s += v[(size_t)i];
        return s;
    };
    double clean_truth = block_sum(e5, 0, 16); // unloaded node, same density
    double loaded_gp1 = block_sum(e1, 16, 32);
    double loaded_gp5 = block_sum(e5, 16, 32);
    // GP=5 estimates the loaded block close to the clean block's cost;
    // GP=1 inflates it noticeably more.
    EXPECT_GT(loaded_gp1, loaded_gp5 * 1.05);
    EXPECT_LT(std::abs(loaded_gp5 - clean_truth), clean_truth * 0.25);
}

}  // namespace
}  // namespace dynmpi::apps
