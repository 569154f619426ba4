#include "dynmpi/timing.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

TEST(IterationTimer, ChoosesProcForLongIterations) {
    IterationTimer t;
    t.start(4);
    std::vector<double> cpu(4, 0.05); // 50ms rows: >= 10ms threshold
    std::vector<double> wall(4, 0.05);
    t.record_cycle(wall, cpu, 0.0, 1.0);
    EXPECT_EQ(t.chosen_method(), IterationTimer::Method::Proc);
}

TEST(IterationTimer, ChoosesHrtimeForShortIterations) {
    IterationTimer t;
    t.start(4);
    std::vector<double> cpu(4, 0.002); // 2ms rows
    std::vector<double> wall(4, 0.002);
    t.record_cycle(wall, cpu, 0.0, 1.0);
    EXPECT_EQ(t.chosen_method(), IterationTimer::Method::Hrtime);
}

TEST(IterationTimer, ProcEstimatesConvergeOverCycles) {
    IterationTimer t;
    t.start(3);
    std::vector<double> cpu{0.033, 0.047, 0.021}; // not jiffy-aligned
    std::vector<double> wall = cpu;
    for (int c = 0; c < 5; ++c) t.record_cycle(wall, cpu, 0.0, 1.0);
    auto est = t.estimates();
    // Quantization error per reading is < 1 jiffy; averaging keeps the per-
    // row estimate within a jiffy of truth.
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(est[(size_t)i], cpu[(size_t)i], 0.010);
}

TEST(IterationTimer, ProcIgnoresCompetingLoad) {
    IterationTimer t;
    t.start(2);
    std::vector<double> cpu{0.05, 0.05};
    std::vector<double> wall{0.15, 0.15}; // 3x inflation from load
    t.record_cycle(wall, cpu, 2.0, 1.0);
    EXPECT_EQ(t.chosen_method(), IterationTimer::Method::Proc);
    auto est = t.estimates();
    EXPECT_NEAR(est[0], 0.05, 0.011);
}

TEST(IterationTimer, HrtimeDeratesByLoad) {
    IterationTimer t;
    t.start(2);
    std::vector<double> cpu{0.002, 0.004};
    std::vector<double> wall{0.006, 0.012}; // 2 competitors: 3x wall
    t.record_cycle(wall, cpu, 2.0, 1.0);
    auto est = t.estimates();
    EXPECT_NEAR(est[0], 0.002, 1e-9);
    EXPECT_NEAR(est[1], 0.004, 1e-9);
}

TEST(IterationTimer, MinFilterRemovesSpikes) {
    IterationTimer t;
    t.start(1);
    std::vector<double> cpu{0.002};
    // Cycle 1 and 2 spike (context switch landed in the row); cycle 3 clean.
    t.record_cycle({0.060}, cpu, 1.0, 1.0);
    t.record_cycle({0.031}, cpu, 1.0, 1.0);
    t.record_cycle({0.004}, cpu, 1.0, 1.0);
    auto est = t.estimates();
    EXPECT_NEAR(est[0], 0.002, 1e-9); // 0.004 / (1+1)
}

TEST(IterationTimer, SingleCycleKeepsSpike) {
    // The GP=1 failure mode of Figure 7: one noisy sample is all you get.
    IterationTimer t;
    t.start(1);
    t.record_cycle({0.060}, {0.002}, 1.0, 1.0);
    auto est = t.estimates();
    EXPECT_NEAR(est[0], 0.030, 1e-9); // wildly over the true 0.002
}

TEST(IterationTimer, SpeedScalesEstimates) {
    IterationTimer t;
    t.start(1);
    // On a 2x-speed node, a row taking 1ms wall costs 2ms reference CPU.
    t.record_cycle({0.001}, {0.001}, 0.0, 2.0);
    EXPECT_NEAR(t.estimates()[0], 0.002, 1e-9);
}

TEST(IterationTimer, MismatchedLengthsRejected) {
    IterationTimer t;
    t.start(2);
    EXPECT_THROW(t.record_cycle({0.1}, {0.1, 0.1}, 0.0, 1.0), Error);
}

TEST(IterationTimer, EstimatesWithoutDataRejected) {
    IterationTimer t;
    t.start(2);
    EXPECT_THROW(t.estimates(), Error);
}

TEST(IterationTimer, UnbalancedRowsPreserved) {
    // Particle-simulation shape: row costs differ wildly; the estimator must
    // preserve the profile, not average it away.
    IterationTimer t;
    Rng rng(7);
    const int n = 64;
    std::vector<double> truth(n);
    for (auto& c : truth) c = rng.uniform(0.001, 0.008);
    t.start(n);
    for (int cycle = 0; cycle < 5; ++cycle) {
        std::vector<double> wall(n);
        for (int i = 0; i < n; ++i) {
            double spike = rng.next_double() < 0.2 ? rng.uniform(0, 0.03) : 0.0;
            wall[(size_t)i] = truth[(size_t)i] * 2.0 + spike; // 1 competitor
        }
        t.record_cycle(wall, truth, 1.0, 1.0);
    }
    auto est = t.estimates();
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(est[(size_t)i], truth[(size_t)i], truth[(size_t)i] * 0.05);
}

}  // namespace
}  // namespace dynmpi
