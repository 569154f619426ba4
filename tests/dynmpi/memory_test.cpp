// Memory-aware balancing and paging (the AppLeS-style constraint from the
// paper's related work, implemented as a runtime extension).
#include <gtest/gtest.h>

#include <numeric>

#include "common/cluster_fixture.hpp"
#include "dynmpi/balancer.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

// ---------------------------------------------------------------------------
// apply_row_caps (pure)
// ---------------------------------------------------------------------------

TEST(RowCaps, NoCapsIsIdentity) {
    auto c = apply_row_caps({10, 20, 30}, {0, 0, 0});
    EXPECT_EQ(c, (std::vector<int>{10, 20, 30}));
}

TEST(RowCaps, OverflowSpillsToOthers) {
    auto c = apply_row_caps({40, 10, 10}, {20, 0, 0});
    EXPECT_EQ(c[0], 20);
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), 0), 60);
    EXPECT_GT(c[1], 10);
    EXPECT_GT(c[2], 10);
}

TEST(RowCaps, SpillRespectsOtherCaps) {
    auto c = apply_row_caps({40, 10, 10}, {20, 15, 0});
    EXPECT_EQ(c[0], 20);
    EXPECT_LE(c[1], 15);
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), 0), 60);
}

TEST(RowCaps, CascadingSpill) {
    // Overflow from node 0 pushes node 1 over its own cap.
    auto c = apply_row_caps({50, 14, 0}, {10, 15, 0});
    EXPECT_EQ(c[0], 10);
    EXPECT_LE(c[1], 15);
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), 0), 64);
}

TEST(RowCaps, InfeasibleCapsRejected) {
    EXPECT_THROW(apply_row_caps({30, 30}, {10, 10}), Error);
}

TEST(RowCaps, ExactFitAccepted) {
    auto c = apply_row_caps({30, 30}, {30, 30});
    EXPECT_EQ(c, (std::vector<int>{30, 30}));
}

// ---------------------------------------------------------------------------
// Runtime integration
// ---------------------------------------------------------------------------

TEST(MemoryAware, AdaptationHonorsNodeMemory) {
    auto c = fast_cluster(4);
    // Node 3 can hold only ~10 rows of the registered array (64 doubles).
    c.memories = {0, 0, 0, 10 * 64 * sizeof(double) + 100};
    msg::Machine m(c);
    m.cluster().add_load_interval(1, 0.5, -1.0, 2); // trigger adaptation
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, 64, o);
        rt.register_dense("A", 64, sizeof(double));
        int ph = rt.init_phase(0, 64, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int t = 0; t < 80; ++t) {
            rt.begin_cycle();
            std::vector<double> costs(
                static_cast<std::size_t>(rt.my_iters(ph).count()), 5e-3);
            rt.run_phase(ph, costs);
            rt.end_cycle();
        }
        EXPECT_GE(rt.stats().redistributions, 1);
        auto counts = rt.distribution().counts();
        EXPECT_LE(counts[3], 10); // memory cap respected
        EXPECT_LT(counts[1], counts[0]); // load still matters
    });
}

TEST(MemoryAware, PagingInflatesCharges) {
    auto c = fast_cluster(1);
    c.memories = {8 * 16 * sizeof(double)}; // fits only 8 of 16 rows
    msg::Machine m(c);
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 16, o);
        rt.register_dense("A", 16, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.begin_cycle();
        rt.run_phase(ph, std::vector<double>(16, 0.01)); // 0.16 s of work
        rt.end_cycle();
        // 4x paging slowdown (single node cannot shed rows).
        EXPECT_NEAR(r.hrtime(), 0.64, 0.1);
    });
}

TEST(MemoryAware, NoPagingWhenDataFits) {
    auto c = fast_cluster(1);
    c.memories = {16 * 16 * sizeof(double) + 1024};
    msg::Machine m(c);
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 16, o);
        rt.register_dense("A", 16, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.begin_cycle();
        rt.run_phase(ph, std::vector<double>(16, 0.01));
        rt.end_cycle();
        EXPECT_NEAR(r.hrtime(), 0.16, 0.02);
    });
}

TEST(MemoryAware, UnlimitedMemoryMeansNoCaps) {
    msg::Machine m(fast_cluster(2));
    m.cluster().add_load_interval(0, 0.5, -1.0, 2);
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, 32, o);
        rt.register_dense("A", 8, sizeof(double));
        int ph = rt.init_phase(0, 32, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int t = 0; t < 60; ++t) {
            rt.begin_cycle();
            std::vector<double> costs(
                static_cast<std::size_t>(rt.my_iters(ph).count()), 5e-3);
            rt.run_phase(ph, costs);
            rt.end_cycle();
        }
        auto counts = rt.distribution().counts();
        EXPECT_GT(counts[1], counts[0]); // pure load-based split
    });
}

}  // namespace
}  // namespace dynmpi
