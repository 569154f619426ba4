#include "sim/load_trace.hpp"

#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

TEST(LoadTrace, ParsesSteadyDirective) {
    auto t = parse_load_trace("node 3: 1.0 inf x2\n");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].node, 3);
    EXPECT_DOUBLE_EQ(t[0].start_s, 1.0);
    EXPECT_DOUBLE_EQ(t[0].end_s, -1.0);
    EXPECT_EQ(t[0].count, 2);
    EXPECT_DOUBLE_EQ(t[0].burst.period_s, 0.0);
}

TEST(LoadTrace, ParsesBoundedBursty) {
    auto t = parse_load_trace("node 0: 2.0 8.0 bursty(0.25,0.5)\n");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_DOUBLE_EQ(t[0].end_s, 8.0);
    EXPECT_DOUBLE_EQ(t[0].burst.period_s, 0.25);
    EXPECT_DOUBLE_EQ(t[0].burst.duty, 0.5);
}

TEST(LoadTrace, SkipsCommentsAndBlankLines) {
    auto t = parse_load_trace(
        "# a comment\n\nnode 1: 0.5   # trailing comment\n");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].node, 1);
    EXPECT_DOUBLE_EQ(t[0].end_s, -1.0); // default forever
}

TEST(LoadTrace, MultipleDirectives) {
    auto t = parse_load_trace("node 0: 1 2\nnode 1: 3 4 x3\nnode 2: 5 inf\n");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[1].count, 3);
}

TEST(LoadTrace, RejectsGarbage) {
    EXPECT_THROW(parse_load_trace("nod 1: 0.5\n"), Error);
    EXPECT_THROW(parse_load_trace("node 1 0.5\n"), Error);
    EXPECT_THROW(parse_load_trace("node 1: abc\n"), Error);
    EXPECT_THROW(parse_load_trace("node 1: 5.0 2.0\n"), Error); // end < start
    EXPECT_THROW(parse_load_trace("node 1: 1.0 inf x0\n"), Error);
    EXPECT_THROW(parse_load_trace("node 1: 1.0 wat\n"), Error);
    EXPECT_THROW(parse_load_trace("node 1: 1.0 inf bursty(0.1)\n"), Error);
    EXPECT_THROW(parse_load_trace("node 1: 1.0 .\n"), Error); // bad end time
    EXPECT_THROW(parse_load_trace("node 1: 1.0 inf xab\n"), Error); // count
}

TEST(LoadTrace, AppliesToCluster) {
    Cluster c(quiet_cluster(4));
    apply_load_trace(c, "node 1: 1.0 3.0 x2\nnode 2: 2.0 inf\n");
    c.engine().run_until(from_seconds(2.5));
    EXPECT_EQ(c.node(1).active_competing(), 2);
    EXPECT_EQ(c.node(2).active_competing(), 1);
    c.engine().run_until(from_seconds(4.0));
    EXPECT_EQ(c.node(1).active_competing(), 0);
    EXPECT_EQ(c.node(2).active_competing(), 1);
}

}  // namespace
}  // namespace dynmpi::sim
