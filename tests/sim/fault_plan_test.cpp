// FaultPlan parsing/validation and FaultInjector behavior against a live
// cluster: faults fire at their virtual times, windows expire, and the
// injector leaves the cluster in the scripted state.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/fault_plan.hpp"
#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

TEST(FaultPlanParse, ScriptWithCommentsAndBlankLines) {
    FaultPlan p = FaultPlan::parse(
        "# hostile history\n"
        "\n"
        "crash node=2 t=1.5\n"
        "slow node=0 t=0.5 dur=2 factor=0.25   # transient brown-out\n"
        "drop-reports node=1 t=3\n"
        "delay-reports node=1 t=4 delay=0.75\n"
        "net-delay t=2 dur=1 extra=0.01\n"
        "lose-sends node=3 t=6 count=4\n");
    ASSERT_EQ(p.faults.size(), 6u);
    EXPECT_EQ(p.faults[0].kind, FaultKind::Crash);
    EXPECT_EQ(p.faults[0].node, 2);
    EXPECT_DOUBLE_EQ(p.faults[0].t, 1.5);
    EXPECT_EQ(p.faults[1].kind, FaultKind::Slowdown);
    EXPECT_DOUBLE_EQ(p.faults[1].duration_s, 2.0);
    EXPECT_DOUBLE_EQ(p.faults[1].value, 0.25);
    EXPECT_EQ(p.faults[2].kind, FaultKind::ReportDrop);
    EXPECT_EQ(p.faults[3].kind, FaultKind::ReportDelay);
    EXPECT_DOUBLE_EQ(p.faults[3].value, 0.75);
    EXPECT_EQ(p.faults[4].kind, FaultKind::NetDelay);
    EXPECT_EQ(p.faults[4].node, -1);
    EXPECT_EQ(p.faults[5].kind, FaultKind::SendLoss);
    EXPECT_EQ(p.faults[5].count, 4);
}

TEST(FaultPlanParse, MalformedScriptsThrow) {
    EXPECT_THROW(FaultPlan::parse("meteor node=0 t=1\n"), Error);
    EXPECT_THROW(FaultPlan::parse("crash node=0\n"), Error);
    EXPECT_THROW(FaultPlan::parse("crash node=zero t=1\n"), Error);
    EXPECT_THROW(FaultPlan::parse("crash node=0 t=1 color=red\n"), Error);
    EXPECT_THROW(FaultPlan::parse("crash node 0 t=1\n"), Error);
}

TEST(FaultPlanParse, ToStringRoundTrips) {
    FaultPlan p = FaultPlan::parse(
        "crash node=1 t=2\n"
        "slow node=0 t=0.5 dur=1.5 factor=0.5\n"
        "net-delay t=3 extra=0.005\n"
        "lose-sends node=2 t=4 count=3\n"
        "delay-reports node=3 t=4 dur=6 delay=2.5\n"
        "revive node=1 t=5\n");
    FaultPlan q = FaultPlan::parse(p.to_string());
    EXPECT_EQ(p.faults, q.faults);
}

TEST(FaultPlanParse, ReviveAfterCrash) {
    FaultPlan p = FaultPlan::parse(
        "crash node=2 t=1\n"
        "revive node=2 t=3\n");
    ASSERT_EQ(p.faults.size(), 2u);
    EXPECT_EQ(p.faults[1].kind, FaultKind::Revive);
    EXPECT_EQ(p.faults[1].node, 2);
    EXPECT_DOUBLE_EQ(p.faults[1].t, 3.0);
    EXPECT_NO_THROW(p.validate(4));
}

TEST(FaultPlanValidate, ReviveWithoutCrashRejected) {
    EXPECT_THROW(FaultPlan::parse("revive node=2 t=3\n").validate(4), Error);
    // Revive of a different node than the crashed one.
    EXPECT_THROW(FaultPlan::parse("crash node=1 t=1\n"
                                  "revive node=2 t=3\n")
                     .validate(4),
                 Error);
    // Revive scheduled before the crash lands.
    EXPECT_THROW(FaultPlan::parse("crash node=2 t=3\n"
                                  "revive node=2 t=1\n")
                     .validate(4),
                 Error);
}

TEST(FaultPlanValidate, DoubleReviveRejected) {
    EXPECT_THROW(FaultPlan::parse("crash node=2 t=1\n"
                                  "revive node=2 t=3\n"
                                  "revive node=2 t=5\n")
                     .validate(4),
                 Error);
    // Crash-revive-crash-revive is a legal history.
    EXPECT_NO_THROW(FaultPlan::parse("crash node=2 t=1\n"
                                     "revive node=2 t=3\n"
                                     "crash node=2 t=5\n"
                                     "revive node=2 t=7\n")
                         .validate(4));
}

TEST(FaultPlanValidate, RejectsOutOfRangeAndNonsense) {
    EXPECT_NO_THROW(FaultPlan::parse("crash node=3 t=1\n").validate(4));
    EXPECT_THROW(FaultPlan::parse("crash node=4 t=1\n").validate(4), Error);
    EXPECT_THROW(FaultPlan::parse("crash t=1\n").validate(4), Error);
    EXPECT_THROW(FaultPlan::parse("slow node=0 t=1 factor=0\n").validate(4),
                 Error);
    EXPECT_THROW(FaultPlan::parse("lose-sends node=0 t=1\n").validate(4),
                 Error);
    EXPECT_THROW(FaultPlan::parse("net-delay t=1\n").validate(4), Error);
    EXPECT_THROW(
        FaultPlan::parse("delay-reports node=0 t=1 delay=0\n").validate(4),
        Error);
    EXPECT_THROW(FaultPlan::parse("crash node=0 t=-1\n").validate(4), Error);
}

ClusterConfig small_config(int nodes) {
    ClusterConfig cc;
    cc.num_nodes = nodes;
    cc.seed = 42;
    cc.ps_period = from_seconds(0.25);
    return cc;
}

TEST(FaultInjector, CrashMarksNodeAndNetwork) {
    Cluster c(small_config(4));
    c.install_faults(FaultPlan::parse("crash node=2 t=1\n"));
    c.engine().at(from_seconds(3.0), [] {}); // strong event keeps engine alive
    c.engine().run();
    EXPECT_TRUE(c.node_crashed(2));
    EXPECT_TRUE(c.node(2).crashed());
    EXPECT_TRUE(c.network().crashed(2));
    EXPECT_EQ(c.crashed_count(), 1);
    EXPECT_FALSE(c.node_crashed(0));
    ASSERT_NE(c.faults(), nullptr);
    EXPECT_EQ(c.faults()->injected(), 1);
}

TEST(FaultInjector, SlowdownWindowRestoresSpeed) {
    Cluster c(small_config(2));
    double base = c.node(1).cpu().params().speed;
    c.install_faults(FaultPlan::parse("slow node=1 t=1 dur=2 factor=0.5\n"));
    double mid_speed = 0.0;
    c.engine().at(from_seconds(2.0),
                  [&] { mid_speed = c.node(1).cpu().params().speed; });
    c.engine().at(from_seconds(4.0), [] {});
    c.engine().run();
    EXPECT_DOUBLE_EQ(mid_speed, base * 0.5);
    EXPECT_DOUBLE_EQ(c.node(1).cpu().params().speed, base);
}

TEST(FaultInjector, NetDelayWindowAppliesAndClears) {
    Cluster c(small_config(2));
    c.install_faults(FaultPlan::parse("net-delay t=1 dur=1 extra=0.02\n"));
    double mid = -1.0;
    c.engine().at(from_seconds(1.5),
                  [&] { mid = c.network().extra_latency(); });
    c.engine().at(from_seconds(3.0), [] {});
    c.engine().run();
    EXPECT_DOUBLE_EQ(mid, 0.02);
    EXPECT_DOUBLE_EQ(c.network().extra_latency(), 0.0);
}

TEST(FaultInjector, DroppedReportsStopTheSampleClock) {
    Cluster c(small_config(2));
    c.install_faults(FaultPlan::parse("drop-reports node=0 t=1\n"));
    c.engine().at(from_seconds(5.0), [] {});
    c.engine().run();
    // Node 0's daemon stopped publishing at t=1; node 1 kept reporting.
    EXPECT_LE(to_seconds(c.daemon(0).last_sample_time()), 1.0);
    EXPECT_GT(to_seconds(c.daemon(1).last_sample_time()), 4.0);
}

// delay-reports holds node 1's samples back for 2.5 s over [4, 10).  Once
// the first held sample comes due (t = 6.5), the newest visible sample
// trails the clock by at least the delay, and it carries the time it was
// taken, not the time it became visible.  When the window clears the held
// samples land in time order, and every tick's sample is there.
TEST(FaultInjector, DelayedReportsTrailTheClockThenCatchUp) {
    Cluster c(small_config(2));
    c.install_faults(
        FaultPlan::parse("delay-reports node=1 t=4 delay=2.5 dur=6\n"));
    const double period = to_seconds(c.daemon(1).period());
    std::vector<std::pair<double, double>> probes;  // (now, last sample)
    for (double t = 6.6; t < 10.0; t += 0.5)
        c.engine().at(from_seconds(t), [&c, &probes] {
            probes.emplace_back(to_seconds(c.engine().now()),
                                to_seconds(c.daemon(1).last_sample_time()));
        });
    c.engine().at(from_seconds(12.1), [] {});
    c.engine().run();

    ASSERT_EQ(probes.size(), 7u);
    for (auto [now, last] : probes) {
        EXPECT_GE(now - last, 2.5) << "at t=" << now;
        EXPECT_LT(now - last, 2.5 + period) << "at t=" << now;
        // A true timestamp: a tick time, a whole number of periods.
        EXPECT_DOUBLE_EQ(last / period, std::round(last / period));
    }
    // Node 0 was never delayed.
    EXPECT_GT(to_seconds(c.daemon(0).last_sample_time()), 11.5);

    // Caught up: one sample per tick through t = 12, in time order.
    const auto& h = c.daemon(1).history();
    ASSERT_EQ(h.size(), c.daemon(0).history().size());
    EXPECT_DOUBLE_EQ(to_seconds(h.back().time), 12.0);
    for (std::size_t i = 0; i < h.size(); ++i)
        EXPECT_EQ(h[i].time, static_cast<SimTime>(i + 1) * c.daemon(1).period())
            << "sample " << i;
}

// A frozen daemon serves the load it had when the window opened (none),
// even after a competing process lands at t = 1.5; when the window
// closes at t = 3 it reports the process again.
TEST(FaultInjector, FrozenReportsWindowEnds) {
    Cluster c(small_config(2));
    c.install_faults(FaultPlan::parse("freeze-reports node=1 t=1 dur=2\n"));
    c.add_load_interval(1, 1.5, -1.0);
    double frozen = -1.0;
    c.engine().at(from_seconds(2.6),
                  [&] { frozen = c.daemon(1).avg_competing(); });
    c.engine().at(from_seconds(4.1), [] {});
    c.engine().run();
    EXPECT_DOUBLE_EQ(frozen, 0.0);
    EXPECT_NEAR(c.daemon(1).avg_competing(), 1.0, 1e-9);
}

TEST(FaultInjector, ReviveRestartsNodeWithNewGeneration) {
    Cluster c(small_config(4));
    c.install_faults(FaultPlan::parse("crash node=2 t=1\n"
                                      "revive node=2 t=2\n"));
    bool crashed_mid = false;
    c.engine().at(from_seconds(1.5), [&] { crashed_mid = c.node_crashed(2); });
    c.engine().at(from_seconds(3.0), [] {});
    c.engine().run();
    EXPECT_TRUE(crashed_mid);
    EXPECT_FALSE(c.node_crashed(2));
    EXPECT_FALSE(c.network().crashed(2));
    EXPECT_EQ(c.crashed_count(), 0);
    EXPECT_EQ(c.node_generation(2), 1);
    EXPECT_EQ(c.node_generation(0), 0);
    EXPECT_EQ(c.faults()->injected(), 2);
}

TEST(FaultInjector, InstallTwiceIsRejected) {
    Cluster c(small_config(2));
    c.install_faults(FaultPlan::parse("crash node=0 t=1\n"));
    EXPECT_THROW(c.install_faults(FaultPlan::parse("crash node=1 t=2\n")),
                 Error);
}

}  // namespace
}  // namespace dynmpi::sim
