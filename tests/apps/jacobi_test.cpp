#include "apps/jacobi.hpp"

#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "dynmpi/report.hpp"
#include "sim/fault_plan.hpp"

namespace dynmpi::apps {
namespace {

JacobiConfig small_jacobi() {
    JacobiConfig jc;
    jc.rows = 64;
    jc.cols_stored = 16;
    jc.cols_math = 16;
    jc.cycles = 20;
    jc.sec_per_row = 5e-4;
    jc.runtime.calibrate = false;
    return jc;
}

double run_on(int nodes, JacobiConfig jc,
              std::function<void(msg::Machine&)> setup = {}) {
    msg::Machine m(fast_cluster(nodes));
    if (setup) setup(m);
    double checksum = 0;
    m.run([&](msg::Rank& r) {
        auto res = run_jacobi(r, jc);
        if (r.id() == 0) checksum = res.checksum;
    });
    return checksum;
}

TEST(JacobiApp, ChecksumIndependentOfNodeCount) {
    JacobiConfig jc = small_jacobi();
    double c1 = run_on(1, jc);
    double c2 = run_on(2, jc);
    double c4 = run_on(4, jc);
    EXPECT_NEAR(c2, c1, std::abs(c1) * 1e-10);
    EXPECT_NEAR(c4, c1, std::abs(c1) * 1e-10);
}

TEST(JacobiApp, ChecksumStableUnderRedistribution) {
    JacobiConfig jc = small_jacobi();
    jc.cycles = 60;
    double quiet = run_on(4, jc);
    double adapted = run_on(4, jc, [](msg::Machine& m) {
        m.cluster().add_load_interval(1, 1.0, 6.0, 2);
    });
    // Redistribution must not change the numerics.
    EXPECT_NEAR(adapted, quiet, std::abs(quiet) * 1e-9);
}

TEST(JacobiApp, AdaptationBeatsNoAdaptUnderLoad) {
    JacobiConfig jc = small_jacobi();
    jc.cycles = 250;
    auto timed = [&](bool adapt) {
        msg::Machine m(fast_cluster(4));
        m.cluster().add_load_interval(2, 0.2, -1.0, 2);
        JacobiConfig c = jc;
        c.runtime.adapt = adapt;
        c.runtime.enable_removal = false;
        m.run([&](msg::Rank& r) { run_jacobi(r, c); });
        return m.elapsed_seconds();
    };
    EXPECT_LT(timed(true), 0.85 * timed(false));
}

TEST(JacobiApp, ConvergesTowardHarmonicSolution) {
    // With Dirichlet boundaries, repeated Jacobi sweeps must shrink the
    // residual of the interior stencil equation.
    JacobiConfig jc = small_jacobi();
    jc.cycles = 4;
    double early = run_on(2, jc);
    jc.cycles = 40;
    double late = run_on(2, jc);
    // Values head monotonically toward the fixed point; checksums differ.
    EXPECT_NE(early, late);
}

// Columns [cols_math, cols_stored) are written only at init (jacobi.hpp):
// they must still hold their initial values in both arrays after rows have
// moved through two redistributions and a buddy restore.
TEST(JacobiApp, StoredColumnsSurviveRedistributionAndRestore) {
    JacobiConfig jc = small_jacobi();
    jc.cols_stored = 24;
    jc.cols_math = 8;
    jc.cycles = 250;
    jc.runtime.enable_removal = false;

    // Serial reference: one node, nothing moves.
    JacobiConfig serial = jc;
    serial.cycles = 1;
    double reference = 0;
    {
        msg::Machine m(fast_cluster(1));
        m.run([&](msg::Rank& r) {
            reference = run_jacobi(r, serial).stored_checksum;
        });
    }

    jc.runtime.replicate = true;
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.1, 1.0, 2);
    m.cluster().install_faults(sim::FaultPlan::parse("crash node=3 t=1.8\n"));
    double stored = 0;
    int restored = 0;
    RuntimeStats stats;
    m.run([&](msg::Rank& r) {
        auto res = run_jacobi(r, jc);
        stored += res.stored_checksum;
        restored += res.stats.restored_rows;
        if (r.id() == 0) stats = res.stats;
    });
    EXPECT_GE(stats.redistributions, 2) << render_events(stats);
    EXPECT_GE(stats.crash_repairs, 1);
    EXPECT_GT(restored, 0);
    EXPECT_GT(reference, 0.0);
    EXPECT_NEAR(stored, reference, std::abs(reference) * 1e-10);
}

TEST(JacobiApp, HookFiresOncePerCycle) {
    JacobiConfig jc = small_jacobi();
    jc.cycles = 7;
    int fired = 0;
    jc.on_cycle = [&](msg::Rank&, int) { ++fired; };
    run_on(2, jc);
    EXPECT_EQ(fired, 7);
}

}  // namespace
}  // namespace dynmpi::apps
