// Machine-size scaling: the runtime's invariants and overheads at 16 and 32
// nodes (the paper's largest configuration).
#include <gtest/gtest.h>

#include <numeric>

#include "common/cluster_fixture.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

struct ScaleOutcome {
    std::vector<int> counts;
    int redists = 0;
    bool data_ok = true;
};

ScaleOutcome run_scale(int nodes, int cycles) {
    msg::Machine m(fast_cluster(nodes));
    m.cluster().add_load_interval(nodes / 2, 0.5, -1.0, 2);
    ScaleOutcome out;
    const int rows = nodes * 8;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, rows, o);
        auto& A = rt.register_dense("A", 2, sizeof(double));
        int ph = rt.init_phase(0, rows, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int row : rt.my_iters(ph).to_vector())
            A.at<double>(row, 1) = row + 0.5;
        for (int c = 0; c < cycles; ++c) {
            rt.begin_cycle();
            rt.run_phase(ph, std::vector<double>(
                                 static_cast<std::size_t>(
                                     rt.my_iters(ph).count()),
                                 2e-3));
            rt.end_cycle();
        }
        bool ok = true;
        for (int row : rt.my_iters(ph).to_vector())
            if (A.at<double>(row, 1) != row + 0.5) ok = false;
        if (!ok) throw Error("scale data corruption");
        if (r.id() == 0) {
            out.counts = rt.distribution().counts();
            out.redists = rt.stats().redistributions;
        }
    });
    return out;
}

class Scale : public ::testing::TestWithParam<int> {};

TEST_P(Scale, AdaptationHoldsAtMachineScale) {
    const int nodes = GetParam();
    ScaleOutcome out = run_scale(nodes, 120);
    EXPECT_GE(out.redists, 1);
    ASSERT_EQ(static_cast<int>(out.counts.size()), nodes);
    EXPECT_EQ(std::accumulate(out.counts.begin(), out.counts.end(), 0),
              nodes * 8);
    // Loaded node clearly below the unloaded norm.
    EXPECT_LT(out.counts[(std::size_t)nodes / 2], 7);
    // Every unloaded node within one row of its neighbours.
    int lo = 1000, hi = 0;
    for (int j = 0; j < nodes; ++j) {
        if (j == nodes / 2) continue;
        lo = std::min(lo, out.counts[(std::size_t)j]);
        hi = std::max(hi, out.counts[(std::size_t)j]);
    }
    EXPECT_LE(hi - lo, 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Scale, ::testing::Values(16, 32));

TEST(Scale, ThirtyTwoNodeRemovalRoundTrip) {
    msg::Machine m(fast_cluster(32));
    m.cluster().add_load_interval(9, 0.3, 2.0, 5);
    const int rows = 32 * 4;
    int drops = 0, readds = 0, final_active = 0;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.force_drop_loaded = true;
        Runtime rt(r, rows, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, rows, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int c = 0; c < 600; ++c) {
            rt.begin_cycle();
            if (rt.participating())
                rt.run_phase(ph, std::vector<double>(
                                     static_cast<std::size_t>(
                                         rt.my_iters(ph).count()),
                                     1e-3));
            rt.end_cycle();
        }
        if (r.id() == 0) {
            drops = rt.stats().physical_drops;
            readds = rt.stats().readds;
            final_active = rt.num_active();
        }
    });
    EXPECT_GE(drops, 1);
    EXPECT_GE(readds, 1);
    EXPECT_EQ(final_active, 32);
}

}  // namespace
}  // namespace dynmpi
