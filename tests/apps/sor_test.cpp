#include "apps/sor.hpp"
#include "common/cluster_fixture.hpp"

#include <gtest/gtest.h>

namespace dynmpi::apps {
namespace {

SorConfig small_sor() {
    SorConfig sc;
    sc.rows = 64;
    sc.cols_stored = 16;
    sc.cols_math = 16;
    sc.cycles = 20;
    sc.sec_per_row = 4e-4;
    sc.runtime.calibrate = false;
    return sc;
}

double run_on(int nodes, SorConfig sc,
              std::function<void(msg::Machine&)> setup = {}) {
    msg::Machine m(fast_cluster(nodes));
    if (setup) setup(m);
    double checksum = 0;
    m.run([&](msg::Rank& r) {
        auto res = run_sor(r, sc);
        if (r.id() == 0) checksum = res.checksum;
    });
    return checksum;
}

TEST(SorApp, ChecksumIndependentOfNodeCount) {
    SorConfig sc = small_sor();
    double c1 = run_on(1, sc);
    double c3 = run_on(3, sc);
    EXPECT_NEAR(c3, c1, std::abs(c1) * 1e-10);
}

TEST(SorApp, ChecksumStableUnderRedistribution) {
    SorConfig sc = small_sor();
    sc.cycles = 60;
    double quiet = run_on(4, sc);
    double adapted = run_on(4, sc, [](msg::Machine& m) {
        m.cluster().add_load_interval(3, 1.0, -1.0);
    });
    EXPECT_NEAR(adapted, quiet, std::abs(quiet) * 1e-9);
}

TEST(SorApp, HaloChargesStoredRowBytes) {
    // A halo copies the 16 math columns but charges all 64 stored ones: each
    // user-tag message is one 512-byte stored row, and the run's virtual
    // time and traffic equal a run that computes on every stored column.
    auto run = [](int cols_math) {
        msg::Machine m(fast_cluster(3));
        SorConfig sc = small_sor();
        sc.cols_stored = 64;
        sc.cols_math = cols_math;
        sc.cycles = 5;
        m.run([&](msg::Rank& r) { run_sor(r, sc); });
        return std::pair(m.traffic(), m.cluster().engine().now());
    };
    const auto [narrow, narrow_end] = run(16);
    const auto [wide, wide_end] = run(64);
    const auto user = static_cast<std::size_t>(msg::TagSpace::User);
    // 3 nodes: 4 halo messages per exchange, 2 exchanges per cycle.
    EXPECT_EQ(narrow.messages[user], 4u * 2u * 5u);
    EXPECT_EQ(narrow.bytes[user], narrow.messages[user] * 64 * sizeof(double));
    EXPECT_EQ(narrow.total_bytes(), wide.total_bytes());
    EXPECT_EQ(narrow.control_bytes, wide.control_bytes);
    EXPECT_EQ(narrow_end, wide_end);
}

TEST(SorApp, TwoPhasesPerCycleCharged) {
    // SOR's two sweeps mean its per-cycle comm/compute profile differs from
    // Jacobi; verify both phases exist and both run.
    msg::Machine m(fast_cluster(2));
    SorConfig sc = small_sor();
    sc.cycles = 5;
    m.run([&](msg::Rank& r) {
        auto res = run_sor(r, sc);
        if (r.id() == 0) {
            EXPECT_EQ(res.stats.cycles, 5);
        }
    });
    // Each cycle burns sec_per_row per row total across both sweeps.
    double expected = 64.0 / 2 * 4e-4 * 5; // rows/nodes * cost * cycles
    EXPECT_GT(m.elapsed_seconds(), expected * 0.9);
}

TEST(SorApp, RemovalTriggersInCommHeavyRegime) {
    // The §5.3 scenario in miniature: little compute, boundary exchanges
    // dominate, several competing processes on one node.
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.3, -1.0, 5);
    SorConfig sc = small_sor();
    sc.rows = 48;
    sc.cols_stored = 4096; // 32 KB boundary rows
    sc.cols_math = 8;
    sc.sec_per_row = 1e-4;
    sc.cycles = 400;
    sc.runtime.enable_removal = true;
    int final_active = -1, drops = 0;
    m.run([&](msg::Rank& r) {
        auto res = run_sor(r, sc);
        if (r.id() == 0) {
            final_active = res.final_active;
            drops = res.stats.physical_drops;
        }
    });
    EXPECT_GE(drops, 1);
    EXPECT_EQ(final_active, 3);
}

}  // namespace
}  // namespace dynmpi::apps
