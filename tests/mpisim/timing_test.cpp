// Tests for the measurement facilities the Dyn-MPI runtime relies on:
// gethrtime-style wall clocks, /proc-style quantized CPU time, and per-row
// compute timings (paper §4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi::msg {
namespace {

TEST(Timing, HrtimeTracksVirtualClock) {
    Machine m(quiet_cluster(1));
    m.run([](Rank& r) {
        double t0 = r.hrtime();
        r.compute(0.5);
        r.sleep(0.25);
        EXPECT_NEAR(r.hrtime() - t0, 0.75, 1e-6);
    });
}

TEST(Timing, ProcCpuTimeQuantizedToJiffy) {
    Machine m(quiet_cluster(1));
    m.run([](Rank& r) {
        r.compute(0.0153); // 15.3 ms of CPU
        EXPECT_NEAR(r.proc_cpu_time(), 0.010, 1e-9); // one whole jiffy
        EXPECT_NEAR(r.node().cpu().app_cpu_seconds(), 0.0153, 1e-6);
    });
}

TEST(Timing, ProcCpuExcludesCompetingProcessTime) {
    // /proc counts only the app's own CPU — the property the paper exploits.
    Machine m(quiet_cluster(1));
    m.cluster().add_load_interval(0, 0.0, -1.0, 3);
    m.run([](Rank& r) {
        r.compute(0.1);
        double wall = r.hrtime();
        EXPECT_NEAR(wall, 0.4, 1e-6); // 4-way sharing
        EXPECT_NEAR(r.node().cpu().app_cpu_seconds(), 0.1, 1e-6);
    });
}

TEST(Timing, ComputeRowsReturnsPerRowCosts) {
    Machine m(quiet_cluster(1));
    m.run([](Rank& r) {
        std::vector<double> rows{0.1, 0.2, 0.3};
        auto t = r.compute_rows(rows);
        ASSERT_EQ(t.wall.size(), 3u);
        EXPECT_NEAR(t.wall[0], 0.1, 1e-9);
        EXPECT_NEAR(t.wall[1], 0.2, 1e-9);
        EXPECT_NEAR(t.wall[2], 0.3, 1e-9);
        EXPECT_NEAR(t.cpu[0], 0.1, 1e-9);
        EXPECT_NEAR(r.hrtime(), 0.6, 1e-6);
    });
}

TEST(Timing, LoadedNodeWallTimesInflatedCpuTimesNot) {
    Machine m(quiet_cluster(1));
    m.cluster().add_load_interval(0, 0.0, -1.0, 1);
    m.run([](Rank& r) {
        std::vector<double> rows(4, 0.05);
        auto t = r.compute_rows(rows);
        for (double w : t.wall) EXPECT_NEAR(w, 0.10, 1e-9); // 2x slowdown
        for (double c : t.cpu) EXPECT_NEAR(c, 0.05, 1e-9);  // unchanged
    });
}

TEST(Timing, JitterMakesShortRowWallTimesNoisyButMinFilters) {
    // With scheduling jitter enabled and a loaded node, individual short-row
    // wall measurements are inflated, but the minimum over several phase
    // cycles approaches the true loaded time (paper: min over the grace
    // period removes context-switch spikes).
    Machine m(quiet_cluster(1, /*jitter=*/1.0));
    m.cluster().add_load_interval(0, 0.0, -1.0, 1);
    m.run([](Rank& r) {
        const double true_loaded = 0.004; // 2ms * (1+1)
        std::vector<double> best(8, 1e9);
        double worst_seen = 0.0;
        for (int cycle = 0; cycle < 5; ++cycle) {
            std::vector<double> rows(8, 0.002);
            auto t = r.compute_rows(rows);
            for (int i = 0; i < 8; ++i) {
                best[(size_t)i] = std::min(best[(size_t)i], t.wall[(size_t)i]);
                worst_seen = std::max(worst_seen, t.wall[(size_t)i]);
            }
        }
        // Jitter should have produced at least one sample well above truth.
        EXPECT_GT(worst_seen, 2 * true_loaded);
        // The min filter gets within one small epsilon of truth.
        for (double b : best) {
            EXPECT_GE(b, true_loaded - 1e-9);
            EXPECT_LT(b, true_loaded + 0.015);
        }
    });
}

TEST(Timing, ComputeRowsConsistentWithTotalElapsed) {
    Machine m(quiet_cluster(1));
    m.cluster().add_load_interval(0, 0.25, 0.75, 2);
    m.run([](Rank& r) {
        std::vector<double> rows(10, 0.1);
        double t0 = r.hrtime();
        auto t = r.compute_rows(rows);
        double measured_total =
            std::accumulate(t.wall.begin(), t.wall.end(), 0.0);
        EXPECT_NEAR(measured_total, r.hrtime() - t0, 1e-6);
    });
}

// The runtime charges a phase through Rank::compute(sum) on every cycle
// that reads no per-row timings, and through compute_rows on the rest: the
// two must leave the node in the same state.
struct ChargeCase {
    int competitors;
    double paging; ///< every row's cost inflated by this, as the runtime does
};

/// Names the test cases by value rather than by their (padded) bytes.
void PrintTo(const ChargeCase& c, std::ostream* os) {
    *os << "competitors" << c.competitors << "_paging" << c.paging;
}

class ChargePaths : public ::testing::TestWithParam<ChargeCase> {};

/// Virtual time, batches run and app CPU seconds after charging a fixed
/// batch sequence through `by_rows` (compute_rows) or compute(sum).
std::vector<double> charge_all(const ChargeCase& c, bool by_rows) {
    Machine m(quiet_cluster(1, /*jitter=*/0.3));
    if (c.competitors > 0) {
        // A steady load plus one that arrives and leaves mid-batch.
        m.cluster().add_load_interval(0, 0.0, -1.0, c.competitors);
        m.cluster().add_load_interval(0, 0.013, 0.041, 1);
    }
    std::vector<double> out;
    m.run([&](Rank& r) {
        const std::vector<std::vector<double>> batches{
            {0.001, 0.0025, 0.0007, 0.004},
            {},
            {0.0, 0.0},
            std::vector<double>(257, 0.0001),
            {0.02, 0.003, 0.0111}};
        for (std::vector<double> costs : batches) {
            for (double& x : costs) x *= c.paging;
            if (by_rows)
                r.compute_rows(costs);
            else
                r.compute(std::accumulate(costs.begin(), costs.end(), 0.0));
            out.push_back(r.hrtime());
            out.push_back(
                static_cast<double>(r.node().cpu().batches_run()));
            out.push_back(r.node().cpu().app_cpu_seconds());
        }
    });
    return out;
}

TEST_P(ChargePaths, ComputeOfTheSumMatchesComputeRows) {
    EXPECT_EQ(charge_all(GetParam(), false), charge_all(GetParam(), true));
}

INSTANTIATE_TEST_SUITE_P(Timing, ChargePaths,
                         ::testing::Values(ChargeCase{0, 1.0},
                                           ChargeCase{2, 1.0},
                                           ChargeCase{0, 4.0},
                                           ChargeCase{2, 4.0}));

}  // namespace
}  // namespace dynmpi::msg
