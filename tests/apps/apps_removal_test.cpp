// Cross-app removal-path coverage: every application must survive physical
// node removal and later re-addition with its numerics intact.
#include <gtest/gtest.h>

#include "apps/cg.hpp"
#include "apps/particle.hpp"
#include "apps/sor.hpp"
#include "common/cluster_fixture.hpp"

namespace dynmpi::apps {
namespace {

/// Heavy load on one node + comm-heavy settings force a physical drop;
/// killing the load later forces the re-add.
void heavy_then_clear(msg::Machine& m, int node, double clear_at = 4.0) {
    m.cluster().add_load_interval(node, 0.3, clear_at, 5);
}

TEST(AppsRemoval, CgDropsAndReaddsWithCorrectResiduals) {
    msg::Machine m(fast_cluster(4));
    heavy_then_clear(m, 1, /*clear_at=*/1.0);
    CgConfig cc;
    cc.n = 256;
    cc.cycles = 400;
    cc.sec_per_nnz = 2e-6; // small compute, allgather-heavy: drop-friendly
    cc.runtime.calibrate = false;
    cc.runtime.force_drop_loaded = true;
    auto ref = reference_cg_residuals(cc);
    CgResult out;
    m.run([&](msg::Rank& r) {
        auto res = run_cg(r, cc);
        if (r.id() == 0) out = res;
    });
    EXPECT_GE(out.stats.physical_drops, 1);
    EXPECT_GE(out.stats.readds, 1);
    EXPECT_EQ(out.final_active, 4);
    // Numerics match the serial reference throughout the drop/re-add.
    // Once CG converges the residual is numerical dust whose exact value
    // depends on reduction grouping, so compare only meaningful magnitudes.
    ASSERT_EQ(out.residual_history.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i] < 1e-20) break;
        EXPECT_NEAR(out.residual_history[i], ref[i], std::abs(ref[i]) * 1e-8)
            << "iteration " << i;
    }
}

TEST(AppsRemoval, ParticleMassSurvivesDropAndReadd) {
    msg::Machine m(fast_cluster(4));
    heavy_then_clear(m, 2);
    ParticleConfig pc;
    pc.rows = 48;
    pc.cols = 8;
    pc.cycles = 500;
    pc.sec_per_particle = 1e-5;
    pc.sec_per_row_base = 5e-5;
    pc.runtime.calibrate = false;
    pc.runtime.force_drop_loaded = true;
    ParticleResult out;
    m.run([&](msg::Rank& r) {
        auto res = run_particle(r, pc);
        if (r.id() == 0) out = res;
    });
    EXPECT_GE(out.stats.physical_drops, 1);
    double expected = 48.0 * 8.0;
    EXPECT_NEAR(out.total_mass, expected, expected * 1e-9);
}

TEST(AppsRemoval, SorChecksumUnchangedByDropPath) {
    auto run_once = [](bool with_load) {
        msg::Machine m(fast_cluster(4));
        if (with_load) heavy_then_clear(m, 1);
        SorConfig sc;
        sc.rows = 48;
        sc.cols_stored = 8;
        sc.cols_math = 8;
        sc.cycles = 500;
        sc.sec_per_row = 2e-4;
        sc.runtime.calibrate = false;
        sc.runtime.force_drop_loaded = true;
        SorResult out;
        m.run([&](msg::Rank& r) {
            auto res = run_sor(r, sc);
            if (r.id() == 0) out = res;
        });
        return out;
    };
    SorResult quiet = run_once(false);
    SorResult dropped = run_once(true);
    EXPECT_GE(dropped.stats.physical_drops, 1);
    EXPECT_NEAR(dropped.checksum, quiet.checksum,
                std::abs(quiet.checksum) * 1e-9);
}

}  // namespace
}  // namespace dynmpi::apps
