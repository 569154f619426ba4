// Multi-phase programs with distinct iteration sub-ranges: per-phase DRSDs,
// per-phase cost measurement, and redistribution correctness when phases
// cover different slices of the row space.
#include <gtest/gtest.h>

#include <numeric>

#include "common/cluster_fixture.hpp"
#include "dynmpi/report.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

TEST(MultiPhase, SubRangePhasesClipToOwnership) {
    msg::Machine m(fast_cluster(4));
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 64, o);
        rt.register_dense("A", 2, sizeof(double));
        int top = rt.init_phase(0, 32, PhaseComm{CommPattern::None, 0});
        int bottom = rt.init_phase(32, 64, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, top);
        rt.add_array_access("A", AccessMode::Write, bottom);
        rt.commit_setup();

        // With the even split {16,16,16,16}: ranks 0/1 own the top phase's
        // iterations, ranks 2/3 the bottom's.
        if (r.id() <= 1) {
            EXPECT_EQ(rt.my_iters(top).count(), 16);
            EXPECT_EQ(rt.my_iters(bottom).count(), 0);
        } else {
            EXPECT_EQ(rt.my_iters(top).count(), 0);
            EXPECT_EQ(rt.my_iters(bottom).count(), 16);
        }
    });
}

TEST(MultiPhase, PerPhaseCostsCombineInGlobalVector) {
    // Phase "top" charges 2ms/row on rows [0,32); phase "bottom" charges
    // 6ms/row on rows [32,64).  The measured global cost vector must show
    // the step, and the resulting blocks must give the bottom's owners
    // fewer rows.
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(0, 0.5, 1.2); // trigger one grace period
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, 64, o);
        rt.register_dense("A", 2, sizeof(double));
        int top = rt.init_phase(0, 32, PhaseComm{CommPattern::None, 0});
        int bottom = rt.init_phase(32, 64, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, top);
        rt.add_array_access("A", AccessMode::Write, bottom);
        rt.commit_setup();

        for (int c = 0; c < 80; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                for (int ph : {top, bottom}) {
                    int n = rt.my_iters(ph).count();
                    if (n > 0)
                        rt.run_phase(
                            ph, std::vector<double>(
                                    static_cast<std::size_t>(n),
                                    ph == top ? 2e-3 : 6e-3));
                }
            }
            rt.end_cycle();
        }
        const auto& costs = rt.last_row_costs();
        ASSERT_EQ(costs.size(), 64u);
        EXPECT_NEAR(costs[10], 2e-3, 5e-4);
        EXPECT_NEAR(costs[50], 6e-3, 1.5e-3);
        // Cost-balanced blocks: the last owner (expensive rows) holds fewer.
        auto counts = rt.distribution().counts();
        EXPECT_LT(counts[3], counts[0]);
        int total = std::accumulate(counts.begin(), counts.end(), 0);
        EXPECT_EQ(total, 64);
    });
}

TEST(MultiPhase, DataIntactAcrossRedistributionWithSubRanges) {
    msg::Machine m(fast_cluster(3));
    m.cluster().add_load_interval(1, 0.5, -1.0, 2);
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, 48, o);
        auto& A = rt.register_dense("A", 3, sizeof(double));
        int top = rt.init_phase(0, 24, PhaseComm{CommPattern::None, 0});
        int bottom = rt.init_phase(24, 48, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, top);
        rt.add_array_access("A", AccessMode::Write, bottom);
        rt.commit_setup();

        // Author every owned row once (phases partition the row space).
        for (int ph : {top, bottom})
            for (int row : rt.my_iters(ph).to_vector())
                for (int j = 0; j < 3; ++j)
                    A.at<double>(row, j) = row * 3.0 + j;

        for (int c = 0; c < 60; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                for (int ph : {top, bottom}) {
                    int n = rt.my_iters(ph).count();
                    if (n > 0)
                        rt.run_phase(ph,
                                     std::vector<double>(
                                         static_cast<std::size_t>(n), 4e-3));
                }
            }
            rt.end_cycle();
        }
        EXPECT_GE(rt.stats().redistributions, 1);
        for (int ph : {top, bottom})
            for (int row : rt.my_iters(ph).to_vector())
                for (int j = 0; j < 3; ++j)
                    EXPECT_DOUBLE_EQ(A.at<double>(row, j), row * 3.0 + j);
    });
}

TEST(MultiPhase, CsvExportCoversEveryCycle) {
    msg::Machine m(fast_cluster(2));
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 16, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int c = 0; c < 12; ++c) {
            rt.begin_cycle();
            rt.run_phase(ph, std::vector<double>(8, 1e-3));
            rt.end_cycle();
        }
        if (r.id() == 0) {
            std::string csv = history_csv(rt.stats());
            // Header + one line per cycle.
            EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 13);
            EXPECT_NE(csv.find("cycle,start_s"), std::string::npos);
        }
    });
}

}  // namespace
}  // namespace dynmpi
