#include "sim/node.hpp"

#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

TEST(Node, StartsWithNoCompetingLoad) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    EXPECT_EQ(n.active_competing(), 0);
    EXPECT_DOUBLE_EQ(n.competing_integral(), 0.0);
}

TEST(Node, SpawnCompetingRaisesActiveCount) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    int pid = n.spawn_competing();
    EXPECT_EQ(n.active_competing(), 1);
    EXPECT_EQ(n.cpu().runnable_competitors(), 1);
    n.kill_competing(pid);
    EXPECT_EQ(n.active_competing(), 0);
    EXPECT_EQ(n.cpu().runnable_competitors(), 0);
}

TEST(Node, CompetingSlowsAppWork) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    n.spawn_competing();
    n.cpu().start_batch(1.0, [] {});
    e.run();
    EXPECT_NEAR(to_seconds(e.now()), 2.0, 1e-6);
}

TEST(Node, IntegralTracksConstantLoad) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    n.spawn_competing();
    e.at(from_seconds(3.0), [] {});
    e.run();
    EXPECT_NEAR(n.competing_integral(), 3.0, 1e-6);
}

TEST(Node, IntegralTracksLoadInterval) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    int pid = -1;
    e.at(from_seconds(1.0), [&] { pid = n.spawn_competing(); });
    e.at(from_seconds(4.0), [&] { n.kill_competing(pid); });
    e.at(from_seconds(10.0), [] {});
    e.run();
    EXPECT_NEAR(n.competing_integral(), 3.0, 1e-6);
}

TEST(Node, BurstyProcessIntegratesToDutyCycle) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    n.spawn_competing(BurstSpec{1.0, 0.25});
    e.at(from_seconds(8.0), [] {});
    e.run();
    // 25% duty over 8 seconds → 2 process-seconds (integral is exact here
    // because the burst phase starts runnable at t=0).
    EXPECT_NEAR(n.competing_integral(), 2.0, 1e-6);
}

TEST(Node, KillUnknownPidRejected) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    EXPECT_THROW(n.kill_competing(12345), dynmpi::Error);
}

TEST(Node, BurstyKillMidBurstStopsToggles) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    int pid = n.spawn_competing(BurstSpec{1.0, 0.5});
    e.at(from_seconds(0.25), [&] { n.kill_competing(pid); });
    e.run();
    EXPECT_EQ(n.active_competing(), 0);
    EXPECT_NEAR(n.competing_integral(), 0.25, 1e-6);
}

TEST(Node, MultipleCompetingProcessesStack) {
    Engine e;
    Node n(e, 0, quiet_cpu(), 1);
    n.spawn_competing();
    n.spawn_competing();
    n.spawn_competing();
    EXPECT_EQ(n.active_competing(), 3);
    n.cpu().start_batch(1.0, [] {});
    e.run();
    EXPECT_NEAR(to_seconds(e.now()), 4.0, 1e-6);
}

}  // namespace
}  // namespace dynmpi::sim
