#include "dynmpi/balancer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/error.hpp"
#include "support/metrics.hpp"

namespace dynmpi {

namespace {

double total_power(const std::vector<NodePower>& nodes) {
    double p = 0.0;
    for (const auto& n : nodes) p += n.power();
    DYNMPI_CHECK(p > 0.0, "no processing power in node set");
    return p;
}

/// Two-node split (paper §4.3): fraction of the combined work W2 assigned to
/// the node with effective power pa so that both finish together, each also
/// paying comm CPU cost C:
///     (x*W2 + C)/pa = ((1-x)*W2 + C)/pb
double two_node_split(double w2, double c, double pa, double pb) {
    if (w2 <= 0.0) return 0.0;
    double x = (pa * w2 + c * (pa - pb)) / (w2 * (pa + pb));
    return std::clamp(x, 0.0, 1.0);
}

}  // namespace

void assign_pool_work(const std::vector<NodePower>& nodes,
                      const std::vector<std::size_t>& pool, double work,
                      double comm_cpu, std::vector<double>& w) {
    DYNMPI_REQUIRE(!pool.empty(), "empty balancing pool");
    work = std::max(0.0, work);
    // Active-set iteration: equalize (w_j + C)/p_j over the members whose
    // target is non-negative.  A member driven negative by the comm term is
    // parked at zero and the equalization re-run without it — the deficit
    // lands on the remaining members instead of silently vanishing (the old
    // per-member clamp inflated the pool total by whatever it cut off).
    std::vector<std::size_t> active(pool.begin(), pool.end());
    for (auto j : pool) w[j] = 0.0;
    while (!active.empty()) {
        double psum = 0.0;
        for (auto j : active) psum += nodes[j].power();
        DYNMPI_CHECK(psum > 0.0, "no processing power in balancing pool");
        const double budget =
            work + comm_cpu * static_cast<double>(active.size());
        std::vector<std::size_t> keep;
        keep.reserve(active.size());
        bool dropped = false;
        for (auto j : active) {
            double wj = nodes[j].power() / psum * budget - comm_cpu;
            if (wj < 0.0) {
                w[j] = 0.0;
                dropped = true;
            } else {
                w[j] = wj;
                keep.push_back(j);
            }
        }
        if (!dropped) return;
        active = std::move(keep);
    }
    // Everyone was parked (work and comm term both ~0): nothing to assign.
}

std::vector<double> naive_shares(const std::vector<NodePower>& nodes) {
    DYNMPI_REQUIRE(!nodes.empty(), "empty node set");
    double p = total_power(nodes);
    std::vector<double> s;
    s.reserve(nodes.size());
    for (const auto& n : nodes) s.push_back(n.power() / p);
    return s;
}

std::vector<double> successive_shares(const BalanceInput& input,
                                      int max_rounds, double tol) {
    const auto& nodes = input.nodes;
    DYNMPI_REQUIRE(!nodes.empty(), "empty node set");
    const double total =
        std::accumulate(input.row_costs.begin(), input.row_costs.end(), 0.0);
    const double c = input.comm_cpu_per_node;

    if (nodes.size() == 1) return {1.0};
    if (total <= 0.0) {
        return std::vector<double>(nodes.size(), 1.0 / nodes.size());
    }

    std::vector<std::size_t> loaded, unloaded;
    for (std::size_t j = 0; j < nodes.size(); ++j)
        (nodes[j].loaded() ? loaded : unloaded).push_back(j);
    // Degenerate cases reduce to one pool balanced by the comm-aware closed
    // form below.
    if (loaded.empty() || unloaded.empty()) {
        loaded.clear();
        unloaded.clear();
        for (std::size_t j = 0; j < nodes.size(); ++j) unloaded.push_back(j);
    }

    // Comm-aware proportional assignment within a pool: equalize
    // (w_j + C)/p_j given a pool work total, conserving the pool total.
    auto pool_assign = [&](const std::vector<std::size_t>& pool, double work,
                           std::vector<double>& w) {
        assign_pool_work(nodes, pool, work, c, w);
    };

    std::vector<double> w(nodes.size(), 0.0);
    pool_assign(unloaded.empty() ? loaded : unloaded, total, w);
    if (loaded.empty()) {
        // One pool: done.
        double s = std::accumulate(w.begin(), w.end(), 0.0);
        for (auto& x : w) x = s > 0 ? x / s : 1.0 / w.size();
        return w;
    }

    // Representative unloaded node: the strongest one (they are usually
    // homogeneous).
    std::size_t rep = unloaded[0];
    for (auto j : unloaded)
        if (nodes[j].power() > nodes[rep].power()) rep = j;

    // Initialize loaded nodes at their naive share.
    double psum_all = total_power(nodes);
    for (auto j : loaded) w[j] = nodes[j].power() / psum_all * total;

    std::vector<double> prev_unloaded(nodes.size(), 0.0);
    int rounds_used = 0;
    for (int round = 0; round < max_rounds; ++round) {
        ++rounds_used;
        // Balance the unloaded pool with the remainder.
        double loaded_work = 0.0;
        for (auto j : loaded) loaded_work += w[j];
        pool_assign(unloaded, std::max(0.0, total - loaded_work), w);

        // Pair each loaded node against the representative unloaded node.
        for (auto j : loaded) {
            double w2 = w[j] + w[rep];
            double x = two_node_split(w2, c, nodes[j].power(),
                                      nodes[rep].power());
            w[j] = x * w2;
        }

        // Convergence: little change to the unloaded assignment.
        double delta = 0.0;
        for (auto j : unloaded)
            delta = std::max(delta, std::fabs(w[j] - prev_unloaded[j]));
        for (auto j : unloaded) prev_unloaded[j] = w[j];
        if (delta < tol * total) break;
    }

    // Final pass so the pools are mutually consistent, then normalize.
    double loaded_work = 0.0;
    for (auto j : loaded) loaded_work += w[j];
    pool_assign(unloaded, std::max(0.0, total - loaded_work), w);

    double s = std::accumulate(w.begin(), w.end(), 0.0);
    DYNMPI_CHECK(s > 0.0, "degenerate share vector");
    for (auto& x : w) x /= s;

    // Convergence telemetry: every calling rank records identically, so the
    // histogram aggregates (ranks x calls) samples of the same values.
    if (support::metrics().enabled()) {
        support::metrics().counter(support::CounterId::BalancerCalls).add(1);
        support::metrics().histogram(support::HistogramId::BalancerRounds)
            .record(static_cast<double>(rounds_used));
    }
    return w;
}

std::vector<int> blocks_from_shares(const std::vector<double>& row_costs,
                                    const std::vector<double>& shares,
                                    int min_rows) {
    DYNMPI_REQUIRE(!shares.empty(), "empty share vector");
    DYNMPI_REQUIRE(min_rows >= 0, "negative min_rows");
    const int nrows = static_cast<int>(row_costs.size());
    const int parties = static_cast<int>(shares.size());
    DYNMPI_REQUIRE(nrows >= parties * min_rows,
                   "not enough rows to satisfy min_rows");

    double total = std::accumulate(row_costs.begin(), row_costs.end(), 0.0);
    std::vector<int> counts(static_cast<std::size_t>(parties), 0);
    if (total <= 0.0) {
        // No cost information: fall back to share-proportional row counts,
        // floored at min_rows — a near-zero share must still receive its
        // minimum assignment, exactly as the prefix walk below guarantees.
        int assigned = 0;
        for (int j = 0; j < parties; ++j) {
            int c = std::max(
                min_rows,
                static_cast<int>(std::floor(
                    shares[static_cast<std::size_t>(j)] * nrows)));
            counts[static_cast<std::size_t>(j)] = c;
            assigned += c;
        }
        // Flooring can overshoot; shave from parties above the floor
        // (feasible because nrows >= parties * min_rows).
        for (int j = 0; assigned > nrows; j = (j + 1) % parties) {
            if (counts[static_cast<std::size_t>(j)] > min_rows) {
                --counts[static_cast<std::size_t>(j)];
                --assigned;
            }
        }
        for (int j = 0; assigned < nrows; j = (j + 1) % parties) {
            ++counts[static_cast<std::size_t>(j)];
            ++assigned;
        }
    } else {
        // Walk the cost prefix, cutting at each node's cumulative target.
        double cum_target = 0.0, cum_cost = 0.0;
        int row = 0;
        for (int j = 0; j < parties; ++j) {
            cum_target += shares[static_cast<std::size_t>(j)] * total;
            int start = row;
            // Remaining parties must be able to take min_rows each.
            int reserve = (parties - 1 - j) * min_rows;
            while (row < nrows - reserve) {
                double next = cum_cost + row_costs[static_cast<std::size_t>(row)];
                // Cut before this row if adding it overshoots the target by
                // more than half the row (nearest-boundary rounding) — but
                // always take min_rows.
                if (row - start >= min_rows &&
                    next > cum_target + row_costs[static_cast<std::size_t>(row)] / 2.0)
                    break;
                cum_cost = next;
                ++row;
            }
            counts[static_cast<std::size_t>(j)] = row - start;
        }
        // Any residue goes to the last party.
        counts[static_cast<std::size_t>(parties - 1)] += nrows - row;
    }
    return counts;
}

std::vector<int> apply_row_caps(std::vector<int> counts,
                                const std::vector<int>& caps) {
    DYNMPI_REQUIRE(counts.size() == caps.size(), "counts/caps size mismatch");
    auto capped = [&](std::size_t j) {
        return caps[j] > 0 && counts[j] >= caps[j];
    };
    int total = std::accumulate(counts.begin(), counts.end(), 0);
    // Iteratively clamp and respill; converges because the capped set only
    // grows.
    for (std::size_t round = 0; round < counts.size() + 1; ++round) {
        long long overflow = 0;
        long long headroom_weight = 0;
        for (std::size_t j = 0; j < counts.size(); ++j) {
            if (caps[j] > 0 && counts[j] > caps[j]) {
                overflow += counts[j] - caps[j];
                counts[j] = caps[j];
            }
        }
        if (overflow == 0) break;
        for (std::size_t j = 0; j < counts.size(); ++j)
            if (!capped(j)) headroom_weight += counts[j] + 1;
        DYNMPI_REQUIRE(headroom_weight > 0,
                       "memory caps cannot hold the row space");
        // Proportional spill; remainder round-robins over uncapped nodes.
        long long spilled = 0;
        for (std::size_t j = 0; j < counts.size(); ++j) {
            if (capped(j)) continue;
            long long add = overflow * (counts[j] + 1) / headroom_weight;
            if (caps[j] > 0)
                add = std::min<long long>(add, caps[j] - counts[j]);
            counts[j] += static_cast<int>(add);
            spilled += add;
        }
        long long left = overflow - spilled;
        std::size_t stuck = 0;
        for (std::size_t j = 0; left > 0; j = (j + 1) % counts.size()) {
            if (capped(j)) {
                DYNMPI_REQUIRE(++stuck <= counts.size(),
                               "memory caps cannot hold the row space");
                continue;
            }
            stuck = 0;
            ++counts[j];
            --left;
        }
    }
    DYNMPI_CHECK(std::accumulate(counts.begin(), counts.end(), 0) == total,
                 "row caps changed the total row count");
    for (std::size_t j = 0; j < counts.size(); ++j)
        DYNMPI_CHECK(caps[j] <= 0 || counts[j] <= caps[j],
                     "row cap violated after spill");
    return counts;
}

double predict_cycle_time(const BalanceInput& input,
                          const std::vector<int>& counts,
                          double comm_wire_s) {
    DYNMPI_REQUIRE(counts.size() == input.nodes.size(),
                   "counts/nodes size mismatch");
    const int nrows = static_cast<int>(input.row_costs.size());
    int row = 0;
    double worst = 0.0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
        double work = 0.0;
        for (int k = 0; k < counts[j]; ++k) {
            DYNMPI_REQUIRE(row < nrows, "counts exceed row space");
            work += input.row_costs[static_cast<std::size_t>(row++)];
        }
        double comm = counts[j] > 0 ? input.comm_cpu_per_node : 0.0;
        worst = std::max(worst, (work + comm) / input.nodes[j].power());
    }
    DYNMPI_REQUIRE(row == nrows, "counts do not cover row space");
    return worst + comm_wire_s;
}

RemovalDecision evaluate_removal(
    const BalanceInput& input, double measured_max_cycle_s,
    const std::function<std::pair<double, double>(int)>& comm_for) {
    RemovalDecision d;
    d.measured_loaded_s = measured_max_cycle_s;
    for (std::size_t j = 0; j < input.nodes.size(); ++j)
        if (!input.nodes[j].loaded())
            d.unloaded_members.push_back(static_cast<int>(j));
    // Nothing to drop, or everything is loaded: keep the configuration.
    if (d.unloaded_members.size() == input.nodes.size() ||
        d.unloaded_members.empty())
        return d;

    // Predicted time of the unloaded-only configuration — predictable with
    // high accuracy because no loaded node participates (paper §4.4).
    const auto [comm_cpu, comm_wire] =
        comm_for(static_cast<int>(d.unloaded_members.size()));
    BalanceInput sub;
    sub.row_costs = input.row_costs;
    sub.comm_cpu_per_node = comm_cpu;
    for (int j : d.unloaded_members)
        sub.nodes.push_back(input.nodes[static_cast<std::size_t>(j)]);
    auto shares = successive_shares(sub);
    auto counts = blocks_from_shares(sub.row_costs, shares);
    d.predicted_unloaded_s = predict_cycle_time(sub, counts, comm_wire);
    d.drop = d.predicted_unloaded_s < measured_max_cycle_s;
    return d;
}

}  // namespace dynmpi
