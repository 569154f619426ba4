#include "sim/cpu.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/cluster_fixture.hpp"
#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

TEST(Cpu, UnloadedBatchTakesItsCost) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    bool done = false;
    cpu.start_batch(2.0, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(to_seconds(e.now()), 2.0, 1e-6);
    EXPECT_NEAR(cpu.app_cpu_seconds(), 2.0, 1e-6);
}

TEST(Cpu, SpeedScalesElapsedTime) {
    Engine e;
    CpuParams p = quiet_cpu();
    p.speed = 2.0;
    Cpu cpu(e, 0, p, 1);
    cpu.start_batch(2.0, [] {});
    e.run();
    EXPECT_NEAR(to_seconds(e.now()), 1.0, 1e-6);
}

TEST(Cpu, OneCompetitorDoublesElapsed) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    cpu.set_runnable_competitors(1);
    cpu.start_batch(3.0, [] {});
    double mid = -1.0; // read mid-batch: half of the 2 s of wall time so far
    e.at(from_seconds(2.0), [&] { mid = cpu.app_cpu_seconds(); });
    e.run();
    EXPECT_NEAR(mid, 1.0, 1e-6);
    EXPECT_NEAR(to_seconds(e.now()), 6.0, 1e-6);
    // CPU time consumed is still the unloaded cost.
    EXPECT_NEAR(cpu.app_cpu_seconds(), 3.0, 1e-6);
}

TEST(Cpu, MidBatchLoadChangeIntegratesPiecewise) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    // 4s of work; competitor arrives at t=1. First second does 1s of work,
    // remaining 3s run at half rate → 6s more → total 7s.
    cpu.start_batch(4.0, [] {});
    e.at(from_seconds(1.0), [&] { cpu.set_runnable_competitors(1); });
    e.run();
    EXPECT_NEAR(to_seconds(e.now()), 7.0, 1e-5);
    EXPECT_NEAR(cpu.app_cpu_seconds(), 4.0, 1e-5);
}

TEST(Cpu, LoadRemovalSpeedsBackUp) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    cpu.set_runnable_competitors(3);
    cpu.start_batch(2.0, [] {});
    // At t=4 (1s of work done at 1/4 rate), all competitors leave.
    e.at(from_seconds(4.0), [&] { cpu.set_runnable_competitors(0); });
    e.run();
    EXPECT_NEAR(to_seconds(e.now()), 5.0, 1e-5);
}

TEST(Cpu, SequentialBatchesAccumulateCpuTime) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    cpu.start_batch(1.0, [&] { cpu.start_batch(1.5, [] {}); });
    e.run();
    EXPECT_NEAR(cpu.app_cpu_seconds(), 2.5, 1e-6);
    EXPECT_EQ(cpu.batches_run(), 2u);
}

TEST(Cpu, OverlappingBatchRejected) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    cpu.start_batch(1.0, [] {});
    EXPECT_THROW(cpu.start_batch(1.0, [] {}), dynmpi::Error);
}

TEST(Cpu, ReconstructRowsMatchesBatchTotalUnloaded) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    std::vector<double> rows(10, 0.05);
    double total = std::accumulate(rows.begin(), rows.end(), 0.0);
    SimTime t0 = e.now();
    cpu.start_batch(total, [] {});
    e.run();
    auto rt = cpu.reconstruct_rows(rows, t0, 99);
    double wall_sum = std::accumulate(rt.wall.begin(), rt.wall.end(), 0.0);
    EXPECT_NEAR(wall_sum, to_seconds(e.now() - t0), 1e-6);
    for (double c : rt.cpu) EXPECT_NEAR(c, 0.05, 1e-9);
}

TEST(Cpu, ReconstructRowsSpansLoadChange) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    // Two rows of 1s each; a competitor arrives at t=1.5 (mid-row-2).
    std::vector<double> rows{1.0, 1.0};
    SimTime t0 = e.now();
    cpu.start_batch(2.0, [] {});
    e.at(from_seconds(1.5), [&] { cpu.set_runnable_competitors(1); });
    e.run();
    auto rt = cpu.reconstruct_rows(rows, t0, 1);
    EXPECT_NEAR(rt.wall[0], 1.0, 1e-6);
    // Row 2: 0.5s unloaded + 0.5s of work at half rate (1s) = 1.5s.
    EXPECT_NEAR(rt.wall[1], 1.5, 1e-6);
    EXPECT_NEAR(to_seconds(e.now()), 2.5, 1e-5);
}

TEST(Cpu, ReconstructRowsAfterLongLoadHistory) {
    // 1,000 load changes: at each millisecond k = 1..500 the count reads 3
    // and then, at the same instant, settles at k % 2.  A row of 1 ms of
    // work thus runs at full rate in even milliseconds and at half rate in
    // odd ones; the hand-computed times below follow from that alone.
    Engine e;
    Cpu quiet(e, 0, quiet_cpu(), 1);
    Cpu noisy(e, 1, CpuParams{}, 1); // default jitter
    for (int k = 1; k <= 500; ++k)
        e.at(from_seconds(k * 1e-3), [&quiet, &noisy, k] {
            for (Cpu* c : {&quiet, &noisy}) {
                c->set_runnable_competitors(3);
                c->set_runnable_competitors(k % 2);
            }
        });
    e.run();

    const std::vector<double> rows(4, 1e-3);
    auto expect_walls = [&](double t0_ms, std::vector<double> want_ms) {
        auto rt = quiet.reconstruct_rows(rows, from_seconds(t0_ms * 1e-3), 1);
        ASSERT_EQ(rt.wall.size(), want_ms.size());
        for (std::size_t i = 0; i < want_ms.size(); ++i)
            EXPECT_NEAR(rt.wall[i], want_ms[i] * 1e-3, 1e-12)
                << "t0 " << t0_ms << " ms, row " << i;
    };
    expect_walls(0.5, {1.5, 1.0, 1.5, 1.5});   // before the first change
    expect_walls(100.0, {1.0, 1.5, 1.5, 1.0}); // at a tie settled at 0
    expect_walls(101.0, {1.5, 1.5, 1.0, 1.5}); // at a tie settled at 1
    expect_walls(250.5, {1.5, 1.0, 1.5, 1.5}); // inside a segment
    expect_walls(500.0, {1.0, 1.0, 1.0, 1.0}); // at the last change

    // Of the entries sharing a start, the settled one sets a row's jitter:
    // a 50 ms row measures clean at 0 competitors, where the transient 3
    // would always add a preemption spike (the row outlasts a quantum).
    auto rt = noisy.reconstruct_rows({0.05}, from_seconds(0.5), 1);
    EXPECT_DOUBLE_EQ(rt.wall[0], 0.05);
}

TEST(Cpu, JitterSpikesSomeRowsOnLoadedNode) {
    // Preemptions land inside a 2ms row with probability ~2/30, so across
    // many rows a few measurements spike while most stay clean — the
    // property the grace-period min filter relies on.
    Engine e;
    CpuParams p; // default jitter_frac = 1.0
    p.quantum_s = 0.030;
    Cpu cpu(e, 0, p, 7);
    cpu.set_runnable_competitors(2);
    std::vector<double> rows(200, 0.002);
    double total = 0.4;
    SimTime t0 = e.now();
    cpu.start_batch(total, [] {});
    e.run();
    auto rt = cpu.reconstruct_rows(rows, t0, 3);
    int spiked = 0, clean = 0;
    for (double w : rt.wall) {
        EXPECT_GE(w, 0.006 - 1e-9); // never below the true loaded time
        if (w > 0.009)
            ++spiked;
        else
            ++clean;
    }
    EXPECT_GE(spiked, 3);    // jitter must bite occasionally...
    EXPECT_GT(clean, 150);   // ...but most samples stay clean
}

TEST(Cpu, JitterIsDeterministic) {
    Engine e1, e2;
    CpuParams p;
    Cpu a(e1, 3, p, 42), b(e2, 3, p, 42);
    a.set_runnable_competitors(1);
    b.set_runnable_competitors(1);
    std::vector<double> rows(5, 0.001);
    a.start_batch(0.005, [] {});
    b.start_batch(0.005, [] {});
    e1.run();
    e2.run();
    auto ra = a.reconstruct_rows(rows, 0, 5);
    auto rb = b.reconstruct_rows(rows, 0, 5);
    EXPECT_EQ(ra.wall, rb.wall);
}

TEST(Cpu, ZeroWorkBatchCompletesImmediately) {
    Engine e;
    Cpu cpu(e, 0, quiet_cpu(), 1);
    bool done = false;
    cpu.start_batch(0.0, [&] { done = true; });
    e.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(e.now(), 0);
}

}  // namespace
}  // namespace dynmpi::sim
