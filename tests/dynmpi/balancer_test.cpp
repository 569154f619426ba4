#include "dynmpi/balancer.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "support/error.hpp"

namespace dynmpi {
namespace {

std::vector<double> uniform_costs(int n, double c = 0.001) {
    return std::vector<double>(static_cast<size_t>(n), c);
}

BalanceInput make_input(std::vector<NodePower> nodes, int rows = 1024,
                        double comm = 0.0) {
    BalanceInput in;
    in.row_costs = uniform_costs(rows);
    in.nodes = std::move(nodes);
    in.comm_cpu_per_node = comm;
    return in;
}

TEST(NaiveShares, EqualNodesSplitEvenly) {
    auto s = naive_shares({{1, 0}, {1, 0}, {1, 0}, {1, 0}});
    for (double x : s) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(NaiveShares, LoadedNodeGetsPowerShare) {
    // One competing process halves the node's power: shares 2/7,2/7,2/7,1/7 —
    // exactly the paper's 4-node CG distribution.
    auto s = naive_shares({{1, 0}, {1, 0}, {1, 0}, {1, 1}});
    EXPECT_NEAR(s[0], 2.0 / 7.0, 1e-12);
    EXPECT_NEAR(s[3], 1.0 / 7.0, 1e-12);
}

TEST(NaiveShares, SpeedScales) {
    auto s = naive_shares({{2, 0}, {1, 0}});
    EXPECT_NEAR(s[0], 2.0 / 3.0, 1e-12);
}

TEST(SuccessiveShares, NoCommReducesToNaive) {
    auto in = make_input({{1, 0}, {1, 0}, {1, 1}}, 1024, 0.0);
    auto s = successive_shares(in);
    auto n = naive_shares(in.nodes);
    for (size_t i = 0; i < s.size(); ++i) EXPECT_NEAR(s[i], n[i], 1e-6);
}

TEST(SuccessiveShares, AllUnloadedSplitsEvenly) {
    auto in = make_input({{1, 0}, {1, 0}, {1, 0}}, 300, 0.002);
    auto s = successive_shares(in);
    for (double x : s) EXPECT_NEAR(x, 1.0 / 3.0, 1e-9);
}

TEST(SuccessiveShares, ZeroCostsSplitEvenly) {
    // No cost information: even shares, loaded node or not.
    auto in = make_input({{1, 0}, {1, 1}, {1, 0}}, 12, 0.002);
    in.row_costs.assign(12, 0.0);
    for (double x : successive_shares(in)) EXPECT_EQ(x, 1.0 / 3);
}

TEST(SuccessiveShares, CommCostShiftsWorkOffLoadedNode) {
    // The §4.3 effect: with a CPU cost of communication, the loaded node
    // should get *less* than its naive relative-power share.
    auto in = make_input({{1, 0}, {1, 0}, {1, 0}, {1, 2}}, 1024, 0.05);
    auto s = successive_shares(in);
    auto nv = naive_shares(in.nodes);
    EXPECT_LT(s[3], nv[3]);
    EXPECT_GT(s[0], nv[0]);
}

TEST(SuccessiveShares, EqualizesPredictedCompletionTimes) {
    auto in = make_input({{1, 0}, {1, 0}, {1, 1}, {1, 3}}, 4096, 0.02);
    auto s = successive_shares(in);
    double total =
        std::accumulate(in.row_costs.begin(), in.row_costs.end(), 0.0);
    std::vector<double> t;
    for (size_t j = 0; j < s.size(); ++j)
        t.push_back((s[j] * total + in.comm_cpu_per_node) /
                    in.nodes[j].power());
    double tmin = *std::min_element(t.begin(), t.end());
    double tmax = *std::max_element(t.begin(), t.end());
    EXPECT_LT((tmax - tmin) / tmax, 0.05);
}

TEST(SuccessiveShares, SharesSumToOne) {
    auto in = make_input({{1, 0}, {2, 1}, {0.5, 0}, {1, 4}}, 512, 0.01);
    auto s = successive_shares(in);
    EXPECT_NEAR(std::accumulate(s.begin(), s.end(), 0.0), 1.0, 1e-9);
    for (double x : s) EXPECT_GE(x, 0.0);
}

TEST(SuccessiveShares, HeavilyLoadedNodeCanReachZero) {
    // When comm overhead dominates, assigning the loaded node anything is a
    // loss; the share should collapse toward zero.
    auto in = make_input({{1, 0}, {1, 0}, {1, 9}}, 64, 0.5);
    auto s = successive_shares(in);
    EXPECT_LT(s[2], 0.02);
}

TEST(SuccessiveShares, SingleNodeGetsEverything) {
    auto in = make_input({{1, 2}}, 100, 0.1);
    auto s = successive_shares(in);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s[0], 1.0);
}

TEST(BlocksFromShares, UniformCostsMatchShares) {
    auto counts = blocks_from_shares(uniform_costs(100),
                                     {0.25, 0.25, 0.25, 0.25});
    EXPECT_EQ(counts, (std::vector<int>{25, 25, 25, 25}));
}

TEST(BlocksFromShares, CountsCoverAllRows) {
    auto counts = blocks_from_shares(uniform_costs(101), {0.4, 0.35, 0.25});
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 101);
}

TEST(BlocksFromShares, SkewedCostsBalanceCostNotRows) {
    // First half of rows cost 3x the second half; equal shares should give
    // the first node fewer rows.
    std::vector<double> costs(100, 0.001);
    for (int i = 0; i < 50; ++i) costs[(size_t)i] = 0.003;
    auto counts = blocks_from_shares(costs, {0.5, 0.5});
    EXPECT_LT(counts[0], 50);
    double c0 = 0;
    for (int i = 0; i < counts[0]; ++i) c0 += costs[(size_t)i];
    EXPECT_NEAR(c0, 0.1, 0.004); // half the 0.2 total
}

TEST(BlocksFromShares, MinRowsEnforced) {
    auto counts = blocks_from_shares(uniform_costs(10), {0.99, 0.005, 0.005},
                                     /*min_rows=*/1);
    EXPECT_GE(counts[1], 1);
    EXPECT_GE(counts[2], 1);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 10);
}

TEST(BlocksFromShares, ZeroShareNodeGetsNothing) {
    auto counts = blocks_from_shares(uniform_costs(10), {0.5, 0.0, 0.5});
    EXPECT_EQ(counts[1], 0);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 10);
}

TEST(BlocksFromShares, ZeroCostFallbackUsesShares) {
    auto counts =
        blocks_from_shares(std::vector<double>(8, 0.0), {0.5, 0.25, 0.25});
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 8);
    EXPECT_EQ(counts[0], 4);
    // Flooring leaves a row over, which the top-up hands out in turn.
    EXPECT_EQ(blocks_from_shares(std::vector<double>(10, 0.0),
                                 {1.0 / 3, 1.0 / 3, 1.0 / 3}),
              (std::vector<int>{4, 3, 3}));
}

TEST(BlocksFromShares, ZeroCostFallbackHonorsMinRows) {
    // Regression: the zero-total fallback used to ignore min_rows entirely —
    // a near-zero share got floor(share*nrows) = 0 rows and the round-robin
    // top-up handed the remainder to the first party, yielding {4, 0} here.
    auto counts = blocks_from_shares(std::vector<double>(4, 0.0),
                                     {0.99, 0.01}, /*min_rows=*/2);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 4);
    EXPECT_GE(counts[0], 2);
    EXPECT_GE(counts[1], 2);
}

TEST(AssignPoolWork, DeficitRedistributedNotDropped) {
    // Regression: a weak node whose comm-adjusted target went negative was
    // clamped to zero without reassigning the cut-off work, so the pool's
    // assigned total exceeded the requested work (1.475 vs 0.5 here).
    std::vector<NodePower> nodes{{1.0, 0}, {0.01, 0}};
    std::vector<double> w(2, -1.0);
    assign_pool_work(nodes, {0, 1}, /*work=*/0.5, /*comm_cpu=*/1.0, w);
    EXPECT_NEAR(w[0] + w[1], 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(w[1], 0.0);
}

TEST(AssignPoolWork, EqualizesCompletionAcrossPool) {
    std::vector<NodePower> nodes{{2.0, 0}, {1.0, 0}, {1.0, 1}};
    std::vector<double> w(3, 0.0);
    const double c = 0.05;
    assign_pool_work(nodes, {0, 1, 2}, /*work=*/3.0, c, w);
    EXPECT_NEAR(w[0] + w[1] + w[2], 3.0, 1e-12);
    double t0 = (w[0] + c) / nodes[0].power();
    for (std::size_t j = 1; j < 3; ++j)
        EXPECT_NEAR((w[j] + c) / nodes[j].power(), t0, 1e-9);
}

TEST(AssignPoolWork, ZeroWorkAssignsNothing) {
    std::vector<NodePower> nodes{{1.0, 0}, {0.25, 0}};
    std::vector<double> w(2, -1.0);
    assign_pool_work(nodes, {0, 1}, /*work=*/0.0, /*comm_cpu=*/0.2, w);
    EXPECT_DOUBLE_EQ(w[0], 0.0);
    EXPECT_DOUBLE_EQ(w[1], 0.0);
}

TEST(PredictCycleTime, LoadedNodeDominates) {
    auto in = make_input({{1, 0}, {1, 1}}, 100, 0.0);
    double t = predict_cycle_time(in, {50, 50});
    // Node 1 runs its 50 rows (0.05s) at half power → 0.1s.
    EXPECT_NEAR(t, 0.1, 1e-9);
}

TEST(PredictCycleTime, CommWireAdds) {
    auto in = make_input({{1, 0}, {1, 0}}, 100, 0.0);
    double t = predict_cycle_time(in, {50, 50}, 0.02);
    EXPECT_NEAR(t, 0.07, 1e-9);
}

TEST(PredictCycleTime, CountsMustCover) {
    auto in = make_input({{1, 0}, {1, 0}}, 100);
    EXPECT_THROW(predict_cycle_time(in, {50, 40}), Error);
}

/// A comm model that charges `cpu` and `wire` seconds at any size, and
/// records the sizes it is asked for.
std::function<std::pair<double, double>(int)> fixed_comm(
    double cpu, double wire, std::vector<int>* asked = nullptr) {
    return [=](int nodes) {
        if (asked) asked->push_back(nodes);
        return std::pair{cpu, wire};
    };
}

TEST(EvaluateRemoval, DropWhenLoadedNodeBottlenecks) {
    // 2 unloaded + 1 node with 3 competitors, big comm overhead: predicted
    // unloaded-only time beats the measured loaded time.
    auto in = make_input({{1, 0}, {1, 0}, {1, 3}}, 90, 0.03);
    // Measured: loaded config is slow.  The comm terms are asked for the
    // unloaded-only size.
    std::vector<int> asked;
    auto d = evaluate_removal(in, /*measured=*/0.12,
                              fixed_comm(/*cpu=*/0.03, /*wire=*/0.005, &asked));
    EXPECT_EQ(asked, (std::vector<int>{2}));
    EXPECT_TRUE(d.drop);
    EXPECT_EQ(d.unloaded_members, (std::vector<int>{0, 1}));
    EXPECT_LT(d.predicted_unloaded_s, 0.12);
}

TEST(EvaluateRemoval, KeepWhenComputationDominates) {
    // Plenty of compute per node: losing a worker hurts more than the load.
    auto in = make_input({{1, 0}, {1, 0}, {1, 1}}, 3000, 0.001);
    // Loaded config measured close to its ideal (~1.05s with shares).
    auto d = evaluate_removal(in, /*measured=*/1.2, fixed_comm(0.001, 0.0005));
    EXPECT_FALSE(d.drop);
    EXPECT_GT(d.predicted_unloaded_s, 1.2);
}

TEST(EvaluateRemoval, AllLoadedNeverDrops) {
    auto in = make_input({{1, 1}, {1, 2}}, 100, 0.01);
    std::vector<int> asked;
    auto d = evaluate_removal(in, 1.0, fixed_comm(0.01, 0.0, &asked));
    EXPECT_FALSE(d.drop);
    EXPECT_TRUE(asked.empty()); // no removal question, no prediction
}

TEST(EvaluateRemoval, AllUnloadedNeverDrops) {
    auto in = make_input({{1, 0}, {1, 0}}, 100, 0.01);
    std::vector<int> asked;
    auto d = evaluate_removal(in, 1.0, fixed_comm(0.01, 0.0, &asked));
    EXPECT_FALSE(d.drop);
    EXPECT_TRUE(asked.empty());
}

TEST(CommModel, NearestNeighborCpuPerCycle) {
    CommCosts c;
    PhaseComm p{CommPattern::NearestNeighbor, 1024};
    double cpu = comm_cpu_per_cycle(c, p, 8);
    EXPECT_NEAR(cpu, 4 * c.cpu_cost(1024), 1e-12);
    EXPECT_DOUBLE_EQ(comm_cpu_per_cycle(c, p, 1), 0.0);
}

TEST(CommModel, AllGatherGrowsWithNodes) {
    CommCosts c;
    PhaseComm p{CommPattern::AllGather, 4096};
    EXPECT_LT(comm_cpu_per_cycle(c, p, 4), comm_cpu_per_cycle(c, p, 32));
}

TEST(CommModel, NonePatternIsFree) {
    CommCosts c;
    PhaseComm p{CommPattern::None, 1 << 20};
    EXPECT_DOUBLE_EQ(comm_cpu_per_cycle(c, p, 16), 0.0);
    EXPECT_DOUBLE_EQ(comm_wire_per_cycle(c, p, 16), 0.0);
}

}  // namespace
}  // namespace dynmpi
