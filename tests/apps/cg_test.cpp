#include "apps/cg.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/cluster_fixture.hpp"
#include "sim/fault_plan.hpp"
#include "support/error.hpp"

namespace dynmpi::apps {
namespace {

CgConfig small_cg() {
    CgConfig cc;
    cc.n = 128;
    cc.cycles = 15;
    cc.sec_per_nnz = 5e-5;
    cc.runtime.calibrate = false;
    return cc;
}

CgResult run_on(int nodes, CgConfig cc,
                std::function<void(msg::Machine&)> setup = {}) {
    msg::Machine m(fast_cluster(nodes));
    if (setup) setup(m);
    CgResult out;
    m.run([&](msg::Rank& r) {
        auto res = run_cg(r, cc);
        if (r.id() == 0) out = res;
    });
    return out;
}

// Block layouts use the gathered p as it arrives; cyclic ones scatter it.
TEST(CgApp, MatchesSerialReference) {
    CgConfig cc = small_cg();
    auto ref = reference_cg_residuals(cc);
    for (int block : {0, 1, 4}) {  // 0: block layout, else cyclic block
        SCOPED_TRACE(block);
        if (block > 0) {
            cc.runtime.initial_dist = Distribution::Kind::Cyclic;
            cc.runtime.cyclic_block_size = block;
        }
        auto res = run_on(3, cc);
        ASSERT_EQ(res.residual_history.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_NEAR(res.residual_history[i], ref[i],
                        std::abs(ref[i]) * 1e-8 + 1e-12)
                << "iteration " << i;
    }
}

TEST(CgApp, ResidualDecreases) {
    auto res = run_on(2, small_cg());
    ASSERT_GE(res.residual_history.size(), 2u);
    EXPECT_LT(res.residual_norm2, res.residual_history.front() * 1e-2);
}

TEST(CgApp, SparseRedistributionPreservesConvergence) {
    CgConfig cc = small_cg();
    cc.cycles = 40;
    auto quiet = run_on(4, cc);
    auto adapted = run_on(4, cc, [](msg::Machine& m) {
        m.cluster().add_load_interval(2, 0.4, -1.0, 2);
    });
    EXPECT_GE(adapted.stats.redistributions, 1);
    ASSERT_EQ(adapted.residual_history.size(), quiet.residual_history.size());
    // Same numerics, redistribution or not.
    for (std::size_t i = 0; i < quiet.residual_history.size(); ++i)
        EXPECT_NEAR(adapted.residual_history[i], quiet.residual_history[i],
                    std::abs(quiet.residual_history[i]) * 1e-8 + 1e-12);
}

TEST(CgApp, CostProfileFollowsMatrixStructure) {
    // Band edges have fewer stored entries; the balancer should see a non-
    // uniform profile.  We just verify the run completes and the loaded node
    // sheds rows.
    CgConfig cc = small_cg();
    cc.cycles = 150;
    cc.runtime.enable_removal = false;
    auto res = run_on(4, cc, [](msg::Machine& m) {
        m.cluster().add_load_interval(0, 0.2, -1.0, 1);
    });
    ASSERT_EQ(res.final_counts.size(), 4u);
    EXPECT_GE(res.stats.redistributions, 1);
    EXPECT_LT(res.final_counts[0], res.final_counts[1]);
}

TEST(CgApp, SingleNodeRuns) {
    auto res = run_on(1, small_cg());
    EXPECT_GT(res.residual_history.front(), res.residual_norm2);
}

// ---------------------------------------------------------------------------
// Crash recovery with buddy replication (sparse matrix + iteration vectors)
// ---------------------------------------------------------------------------

CgRecoverResult run_recoverable(int nodes, CgConfig cc,
                                const std::string& faults = {},
                                int collector = 0) {
    cc.runtime.replicate = true;
    msg::Machine m(fast_cluster(nodes));
    if (!faults.empty())
        m.cluster().install_faults(sim::FaultPlan::parse(faults));
    CgRecoverResult out;
    m.run([&](msg::Rank& r) {
        auto res = run_cg_recoverable(r, cc);
        if (!res.matrix_intact)
            throw Error("matrix rows corrupted on rank " +
                        std::to_string(r.id()));
        if (r.id() == collector) out = res;
    });
    return out;
}

// An 8-node CG run loses a node mid-solve; the buddy restore hands the
// adopter the sparse matrix rows and iteration vectors bitwise intact, so
// the solve converges through the same residuals as the fault-free run.
TEST(CgApp, CrashMidSolveConvergesLikeFaultFree) {
    CgConfig cc = small_cg();
    cc.cycles = 30;
    auto clean = run_recoverable(8, cc);
    auto crashed = run_recoverable(8, cc, "crash node=5 t=0.08\n");
    EXPECT_GE(crashed.stats.crash_repairs, 1);
    EXPECT_GE(crashed.redo_cycles, 1);
    ASSERT_EQ(crashed.residual_history.size(),
              clean.residual_history.size());
    // Summation order differs once ownership changes, so the comparison is
    // tight-relative rather than bitwise; the matrix compare above is
    // bitwise on every rank.
    for (std::size_t i = 0; i < clean.residual_history.size(); ++i)
        EXPECT_NEAR(crashed.residual_history[i], clean.residual_history[i],
                    std::abs(clean.residual_history[i]) * 1e-8 + 1e-12)
            << "iteration " << i;
    EXPECT_EQ(crashed.final_active, 7);
}

// The replication leader (relative rank 0) is not special either.
TEST(CgApp, LeaderCrashMidSolveConvergesLikeFaultFree) {
    CgConfig cc = small_cg();
    cc.cycles = 30;
    auto clean = run_recoverable(8, cc);
    auto crashed = run_recoverable(8, cc, "crash node=0 t=0.08\n", 1);
    EXPECT_GE(crashed.stats.crash_repairs, 1);
    ASSERT_EQ(crashed.residual_history.size(),
              clean.residual_history.size());
    for (std::size_t i = 0; i < clean.residual_history.size(); ++i)
        EXPECT_NEAR(crashed.residual_history[i], clean.residual_history[i],
                    std::abs(clean.residual_history[i]) * 1e-8 + 1e-12)
            << "iteration " << i;
}

}  // namespace
}  // namespace dynmpi::apps
