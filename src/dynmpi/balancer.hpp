// Data-distribution selection (paper §4.3) and the node-removal predictor
// (paper §4.4).
//
// Given per-row unloaded costs (from IterationTimer) and per-node load
// (from dmpi_ps), two schemes compute each node's share of work:
//
//  - naive relative power [CRAUL]: share ∝ speed/(1+load).  Ignores the CPU
//    spent communicating, so loaded nodes end up over-assigned.
//  - successive balancing: pairwise loaded/unloaded splits that include a
//    per-cycle communication CPU term, iterated in rounds until the
//    assignment to unloaded nodes stabilizes.
//
// Shares are then materialized as a variable-block distribution by walking
// the per-row cost prefix (blocks_from_shares), which handles unbalanced
// computations such as particle simulation for free.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "dynmpi/comm_model.hpp"

namespace dynmpi {

/// The dmpi_ps load above which successive balancing and the §4.4 removal
/// predictor treat a node as loaded.  It is a second threshold beside
/// RuntimeOptions::load_change_eps (0.5), which triggers adaptation and
/// picks the re-add candidates: a node at load 0.4 can be re-added as
/// unloaded and then dropped as loaded.  Unifying the two would move
/// virtual time.
inline constexpr double kLoadedThreshold = 0.25;

/// A node's processing capability as the runtime sees it.
struct NodePower {
    double speed = 1.0;         ///< static relative CPU speed
    double avg_competing = 0.0; ///< dmpi_ps load average
    double share() const { return 1.0 / (1.0 + avg_competing); }
    double power() const { return speed * share(); }
    bool loaded() const { return avg_competing > kLoadedThreshold; }
};

struct BalanceInput {
    std::vector<double> row_costs; ///< unloaded ref-seconds per global row
    std::vector<NodePower> nodes;  ///< candidate active set, in group order
    double comm_cpu_per_node = 0.0; ///< CPU sec/cycle each node spends on comm
};

/// Work fractions under naive relative power (sums to 1).
std::vector<double> naive_shares(const std::vector<NodePower>& nodes);

/// Work fractions under successive balancing (sums to 1).
/// `tol` is the per-round relative change below which iteration stops.
std::vector<double> successive_shares(const BalanceInput& input,
                                      int max_rounds = 32,
                                      double tol = 1e-3);

/// Comm-aware proportional assignment within one pool: equalize
/// (w_j + comm_cpu)/power_j across `pool` subject to w_j >= 0 and
/// sum over the pool == max(0, work).  A weak node whose equalized target
/// would be negative is excluded (it gets 0) and its deficit is
/// redistributed over the remaining pool members, so no work is silently
/// dropped.  Entries of `w` outside `pool` are left untouched.
void assign_pool_work(const std::vector<NodePower>& nodes,
                      const std::vector<std::size_t>& pool, double work,
                      double comm_cpu, std::vector<double>& w);

/// Turn shares into contiguous per-node row counts by walking the cost
/// prefix.  Every node receives at least `min_rows` rows (used by logical
/// dropping, which keeps a minimum assignment on deloaded nodes).
std::vector<int> blocks_from_shares(const std::vector<double>& row_costs,
                                    const std::vector<double>& shares,
                                    int min_rows = 0);

/// Memory-aware clamp (the AppLeS-style paging avoidance the paper cites):
/// cap each node's count at caps[j] (<= 0 means unlimited) and hand the
/// overflow to nodes with headroom, proportionally to their counts.  The
/// caps must admit the total row count.
std::vector<int> apply_row_caps(std::vector<int> counts,
                                const std::vector<int>& caps);

/// Predicted wall seconds per phase cycle for a given block assignment:
/// max over nodes of (compute + comm CPU, time-shared) plus wire time.
double predict_cycle_time(const BalanceInput& input,
                          const std::vector<int>& counts,
                          double comm_wire_s = 0.0);

/// Node-removal evaluation (paper §4.4): compare the measured loaded
/// configuration against the *predicted* configuration using only unloaded
/// nodes.
struct RemovalDecision {
    bool drop = false;
    double predicted_unloaded_s = 0.0;
    double measured_loaded_s = 0.0;
    std::vector<int> unloaded_members; ///< indices into input.nodes
};

/// `measured_max_cycle_s` is the post-redistribution grace-period average of
/// the slowest node.  `comm_for(k)` gives the (CPU, wire) seconds per cycle
/// that k nodes spend communicating; it is asked only for the unloaded-only
/// configuration, and only when some but not all nodes are loaded (with
/// none or all loaded there is no removal question: `drop` stays false).
RemovalDecision evaluate_removal(
    const BalanceInput& input, double measured_max_cycle_s,
    const std::function<std::pair<double, double>(int)>& comm_for);

}  // namespace dynmpi
