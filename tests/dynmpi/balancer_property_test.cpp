// Property tests for the balancing math: monotonicity, conservation, and
// consistency laws that must hold for arbitrary inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "dynmpi/balancer.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

class BalancerProperty : public ::testing::TestWithParam<int> {};

BalanceInput random_input(Rng& rng) {
    BalanceInput in;
    int nodes = 2 + static_cast<int>(rng.next_below(10));
    int rows = nodes * (2 + static_cast<int>(rng.next_below(40)));
    in.row_costs.resize(static_cast<std::size_t>(rows));
    for (auto& c : in.row_costs) c = rng.uniform(1e-5, 5e-3);
    for (int j = 0; j < nodes; ++j) {
        double load = rng.next_double() < 0.4
                          ? rng.uniform(0.5, 4.0)
                          : 0.0;
        in.nodes.push_back(NodePower{rng.uniform(0.5, 2.0), load});
    }
    in.comm_cpu_per_node = rng.uniform(0.0, 2e-3);
    return in;
}

TEST_P(BalancerProperty, SharesFormAValidDistribution) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717);
    for (int trial = 0; trial < 20; ++trial) {
        BalanceInput in = random_input(rng);
        for (auto shares : {successive_shares(in), naive_shares(in.nodes)}) {
            double sum = std::accumulate(shares.begin(), shares.end(), 0.0);
            ASSERT_NEAR(sum, 1.0, 1e-6);
            for (double s : shares) ASSERT_GE(s, -1e-12);
        }
    }
}

TEST_P(BalancerProperty, MoreLoadNeverMeansMoreShare) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    for (int trial = 0; trial < 15; ++trial) {
        BalanceInput in = random_input(rng);
        auto base = successive_shares(in);
        // Add one competitor to a random node: its share must not grow.
        std::size_t victim = rng.next_below(in.nodes.size());
        BalanceInput heavier = in;
        heavier.nodes[victim].avg_competing += 1.0;
        auto worse = successive_shares(heavier);
        ASSERT_LE(worse[victim], base[victim] + 1e-9)
            << "trial " << trial << " victim " << victim;
    }
}

TEST_P(BalancerProperty, BlocksConserveRowsUnderAnyShares) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
    for (int trial = 0; trial < 20; ++trial) {
        BalanceInput in = random_input(rng);
        auto shares = successive_shares(in);
        for (int min_rows : {0, 1}) {
            auto counts = blocks_from_shares(in.row_costs, shares, min_rows);
            ASSERT_EQ(std::accumulate(counts.begin(), counts.end(), 0),
                      static_cast<int>(in.row_costs.size()));
            for (int c : counts) ASSERT_GE(c, min_rows);
        }
    }
}

TEST_P(BalancerProperty, PoolWorkIsConserved) {
    // Pool assignment must hand out exactly the requested work, even under
    // strong heterogeneity and comm terms large enough to park weak members
    // at zero (the old clamp leaked the parked members' deficits).
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 52361);
    for (int trial = 0; trial < 25; ++trial) {
        int n = 1 + static_cast<int>(rng.next_below(12));
        std::vector<NodePower> nodes;
        std::vector<std::size_t> pool;
        for (int j = 0; j < n; ++j) {
            // Spread powers over ~3 orders of magnitude.
            nodes.push_back(NodePower{rng.uniform(0.005, 5.0),
                                      rng.uniform(0.0, 3.0)});
            pool.push_back(static_cast<std::size_t>(j));
        }
        double work = rng.uniform(0.0, 10.0);
        double comm = rng.uniform(0.0, 2.0);
        std::vector<double> w(static_cast<std::size_t>(n), -1.0);
        assign_pool_work(nodes, pool, work, comm, w);
        double sum = 0.0;
        for (auto j : pool) {
            ASSERT_GE(w[j], 0.0) << "trial " << trial << " member " << j;
            sum += w[j];
        }
        ASSERT_NEAR(sum, work, 1e-9 * std::max(1.0, work))
            << "trial " << trial;
    }
}

TEST_P(BalancerProperty, PredictedTimeNeverBelowPerfectParallel) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 997);
    for (int trial = 0; trial < 15; ++trial) {
        BalanceInput in = random_input(rng);
        auto counts = blocks_from_shares(in.row_costs, successive_shares(in));
        double t = predict_cycle_time(in, counts);
        double total =
            std::accumulate(in.row_costs.begin(), in.row_costs.end(), 0.0);
        double power = 0;
        for (const auto& n : in.nodes) power += n.power();
        ASSERT_GE(t, total / power - 1e-12); // lower bound: ideal split
    }
}

TEST_P(BalancerProperty, CapsNeverViolatedByRandomSpills) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
    for (int trial = 0; trial < 25; ++trial) {
        int nodes = 2 + static_cast<int>(rng.next_below(8));
        int rows = nodes * (4 + static_cast<int>(rng.next_below(30)));
        std::vector<int> counts(static_cast<std::size_t>(nodes), 0);
        for (int k = 0; k < rows; ++k)
            ++counts[rng.next_below((std::uint64_t)nodes)];
        // Caps: generous enough in aggregate, tight on some nodes.
        std::vector<int> caps(static_cast<std::size_t>(nodes), 0);
        for (int j = 0; j < nodes / 2; ++j)
            caps[(std::size_t)j] =
                1 + static_cast<int>(rng.next_below((std::uint64_t)rows));
        long long capacity = 0;
        bool unlimited = false;
        for (int j = 0; j < nodes; ++j) {
            if (caps[(std::size_t)j] == 0) unlimited = true;
            capacity += caps[(std::size_t)j];
        }
        if (!unlimited && capacity < rows) continue; // infeasible draw
        auto result = apply_row_caps(counts, caps);
        ASSERT_EQ(std::accumulate(result.begin(), result.end(), 0), rows);
        for (int j = 0; j < nodes; ++j)
            if (caps[(std::size_t)j] > 0) {
                ASSERT_LE(result[(std::size_t)j], caps[(std::size_t)j]);
            }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalancerProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace dynmpi
