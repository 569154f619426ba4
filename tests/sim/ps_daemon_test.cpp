#include "sim/ps_daemon.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/cluster_fixture.hpp"

namespace dynmpi::sim {
namespace {

struct DaemonFixture : ::testing::Test {
    Engine e;
};

TEST_F(DaemonFixture, ReportsZeroOnIdleNode) {
    Node n(e, 0, quiet_cpu(), 1);
    PsDaemon d(e, n);
    e.run_until(from_seconds(3.5));
    EXPECT_DOUBLE_EQ(d.avg_competing(), 0.0);
    EXPECT_EQ(d.reported_load(), 1); // app always included
}

TEST_F(DaemonFixture, DetectsConstantCompetingLoad) {
    Node n(e, 0, quiet_cpu(), 1);
    PsDaemon d(e, n);
    n.spawn_competing();
    e.run_until(from_seconds(2.5));
    EXPECT_NEAR(d.avg_competing(), 1.0, 1e-9);
    EXPECT_EQ(d.reported_load(), 2);
}

TEST_F(DaemonFixture, MidWindowArrivalGivesFractionalAverage) {
    Node n(e, 0, quiet_cpu(), 1);
    PsDaemon d(e, n);
    // Competing process arrives at t=2.5; window [2,3) sees 0.5 on average.
    e.at(from_seconds(2.5), [&] { n.spawn_competing(); });
    e.run_until(from_seconds(3.1));
    EXPECT_NEAR(d.avg_competing(), 0.5, 1e-9);
}

TEST_F(DaemonFixture, BurstyLoadAveragesToDuty) {
    Node n(e, 0, quiet_cpu(), 1);
    PsDaemon d(e, n);
    n.spawn_competing(BurstSpec{0.1, 0.3});
    e.run_until(from_seconds(5.1));
    EXPECT_NEAR(d.avg_competing(), 0.3, 1e-6);
    // vmstat-style instantaneous sampling sees either 0 or 1 — never 0.3.
    VmstatSampler v(n);
    int inst = v.sample_runnable();
    EXPECT_TRUE(inst == 0 || inst == 1);
}

TEST_F(DaemonFixture, VmstatCountsExactlyTheRunnableCompetitors) {
    // One steady competitor and two bursty ones with different periods.  A
    // duty schedule starts runnable at its spawn instant, so at time t a
    // bursty process is runnable iff t mod period < period * duty.
    Node n(e, 0, quiet_cpu(), 1);
    const BurstSpec a{0.4, 0.5};
    const BurstSpec b{1.0, 0.25};
    n.spawn_competing();
    n.spawn_competing(a);
    n.spawn_competing(b);
    auto runnable = [](const BurstSpec& s, double t) {
        return std::fmod(t, s.period_s) < s.period_s * s.duty ? 1 : 0;
    };
    VmstatSampler v(n);
    for (double t : {0.1, 0.3, 0.5, 0.7, 1.1, 1.3, 2.1, 2.35}) {
        e.run_until(from_seconds(t));
        EXPECT_EQ(v.sample_runnable(), 1 + runnable(a, t) + runnable(b, t))
            << "t=" << t;
    }
}

TEST_F(DaemonFixture, HistoryAccumulatesOneSamplePerPeriod) {
    Node n(e, 0, quiet_cpu(), 1);
    PsDaemon d(e, n);
    e.run_until(from_seconds(4.5));
    EXPECT_EQ(d.history().size(), 4u);
    EXPECT_EQ(d.last_sample_time(), from_seconds(4.0));
}

TEST_F(DaemonFixture, CustomPeriodRespected) {
    Node n(e, 0, quiet_cpu(), 1);
    PsDaemon d(e, n, from_seconds(0.25));
    e.run_until(from_seconds(1.01));
    EXPECT_EQ(d.history().size(), 4u);
}

TEST_F(DaemonFixture, VmstatMissesBlockedAtReceiveApp) {
    // The monitored app is blocked at a receive; vmstat reports nothing even
    // though the app will need the CPU — dmpi_ps still counts it.
    Node n(e, 0, quiet_cpu(), 1);
    PsDaemon d(e, n);
    VmstatSampler v(n);
    e.run_until(from_seconds(1.5));
    EXPECT_EQ(v.sample_runnable(), 0);
    EXPECT_EQ(d.reported_load(), 1);
}

TEST_F(DaemonFixture, LoadDisappearanceReflectedNextWindow) {
    Node n(e, 0, quiet_cpu(), 1);
    PsDaemon d(e, n);
    int pid = n.spawn_competing();
    e.at(from_seconds(3.0), [&] { n.kill_competing(pid); });
    e.run_until(from_seconds(4.5));
    EXPECT_NEAR(d.avg_competing(), 0.0, 1e-9);
    EXPECT_EQ(d.reported_load(), 1);
}

}  // namespace
}  // namespace dynmpi::sim
