#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

TEST(Cluster, ConstructsRequestedNodes) {
    Cluster c(quiet_cluster(8));
    EXPECT_EQ(c.size(), 8);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(c.node(i).id(), i);
}

TEST(Cluster, PerNodeSpeedsApplied) {
    ClusterConfig cfg = quiet_cluster(2);
    cfg.speeds = {1.0, 2.0};
    Cluster c(cfg);
    EXPECT_DOUBLE_EQ(c.node(0).cpu().params().speed, 1.0);
    EXPECT_DOUBLE_EQ(c.node(1).cpu().params().speed, 2.0);
}

TEST(Cluster, SpeedsSizeMismatchRejected) {
    ClusterConfig cfg = quiet_cluster(3);
    cfg.speeds = {1.0, 2.0};
    EXPECT_THROW(Cluster c(cfg), dynmpi::Error);
}

TEST(Cluster, LoadIntervalStartsAndStops) {
    Cluster c(quiet_cluster(4));
    c.add_load_interval(1, 2.0, 5.0);
    c.engine().run_until(from_seconds(3.0));
    EXPECT_EQ(c.node(1).active_competing(), 1);
    EXPECT_EQ(c.node(0).active_competing(), 0);
    c.engine().run_until(from_seconds(6.0));
    EXPECT_EQ(c.node(1).active_competing(), 0);
}

TEST(Cluster, OpenEndedLoadIntervalPersists) {
    Cluster c(quiet_cluster(4));
    c.add_load_interval(2, 1.0, -1.0, 3);
    c.engine().run_until(from_seconds(100.0));
    EXPECT_EQ(c.node(2).active_competing(), 3);
}

TEST(Cluster, DaemonsObserveScriptedLoad) {
    Cluster c(quiet_cluster(4));
    c.add_load_interval(0, 0.0, -1.0, 2);
    c.engine().run_until(from_seconds(2.5));
    EXPECT_EQ(c.daemon(0).reported_load(), 3);
    EXPECT_EQ(c.daemon(1).reported_load(), 1);
}

TEST(Cluster, AtRunsCallbackAtRequestedTime) {
    Cluster c(quiet_cluster(4));
    double seen = -1.0;
    c.at(1.25, [&] { seen = to_seconds(c.engine().now()); });
    c.engine().run_until(from_seconds(2.0));
    EXPECT_DOUBLE_EQ(seen, 1.25);
}

TEST(Cluster, NodeIndexOutOfRangeRejected) {
    Cluster c(quiet_cluster(2));
    EXPECT_THROW(c.node(2), dynmpi::Error);
    EXPECT_THROW(c.node(-1), dynmpi::Error);
    EXPECT_THROW(c.daemon(7), dynmpi::Error);
}

TEST(Cluster, NodesHaveDecorrelatedSeeds) {
    ClusterConfig cfg = quiet_cluster(2);
    cfg.cpu.jitter_frac = 1.0;
    Cluster c(cfg);
    c.node(0).spawn_competing();
    c.node(1).spawn_competing();
    // Rows comparable to the quantum so preemption spikes are near-certain
    // and the per-node jitter streams become observable.
    c.node(0).cpu().start_batch(0.2, [] {});
    c.node(1).cpu().start_batch(0.2, [] {});
    c.engine().run();
    std::vector<double> rows(4, 0.05);
    auto r0 = c.node(0).cpu().reconstruct_rows(rows, 0, 1);
    auto r1 = c.node(1).cpu().reconstruct_rows(rows, 0, 1);
    EXPECT_NE(r0.wall, r1.wall); // different per-node jitter streams
}

}  // namespace
}  // namespace dynmpi::sim
