// The §4 adaptation policy (paper §4.2–4.4) as a value type.
//
// Every active rank runs the same policy on the same world-collectively
// exchanged inputs, so the ranks never disagree.  The policy holds the
// rules and their state and nothing else: no rank, group or message.  The
// Runtime (runtime.hpp) gathers each cycle's inputs into a CycleView — the
// allreduced load delta and wall time, and at a decision point the leader's
// LoadSnapshot and the global cost vector — calls step(), and carries out
// the AdaptAction it returns.
//
//   Monitor   — a dmpi_ps delta above load_change_eps starts a grace period.
//   Grace     — after grace_cycles of measurement (§4.2) the candidates
//               (the active nodes plus every joinable, unquarantined removed
//               node whose load cleared) are balanced (§4.3); a material
//               change redistributes, and PostGrace begins.
//   PostGrace — after kPostGraceCycles observing the new layout, the §4.4
//               predictor may drop the loaded nodes: physically (out of the
//               active set) or logically (kept with a minimum block).
//
// The leader (relative rank 0) also keeps the report-health state: per-node
// bad/clean report streaks that quarantine and readmit nodes, and the
// bootstrap records that decide when a revived node may rejoin
// (docs/FAULTS.md).  Its flags reach the other ranks in the LoadSnapshot.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "dynmpi/balancer.hpp"
#include "dynmpi/comm_model.hpp"
#include "dynmpi/control_wire.hpp"
#include "dynmpi/distribution.hpp"

namespace dynmpi {

enum class DropMode { Physical, Logical };
enum class BalanceScheme { SuccessiveBalancing, RelativePower };

/// The runtime's options; most of them configure the policy.
struct RuntimeOptions {
    bool adapt = true; ///< false: behave like plain MPI (the No-Adapt baseline)
    /// Initial distribution shape (paper §2.1: DMPI_BLOCK / DMPI_CYCLIC).
    /// Adaptation always produces variable blocks; a cyclic program that
    /// adapts is redistributed from its cyclic layout on the first change.
    Distribution::Kind initial_dist = Distribution::Kind::Block;
    int cyclic_block_size = 1;
    int grace_cycles = 5; ///< paper default (§4.2)
    bool enable_removal = true;
    /// Drop loaded nodes at the post-grace decision point regardless of the
    /// §4.4 predictor (benches measure both configurations this way).
    bool force_drop_loaded = false;
    DropMode drop_mode = DropMode::Physical;
    BalanceScheme scheme = BalanceScheme::SuccessiveBalancing;
    bool calibrate = true; ///< run comm µ-benchmarks (false: CommCosts{})
    int max_redistributions = -1;   ///< cap on adaptations; -1 = unlimited
                                    ///< (Figure 5's "Redist Once" arm uses 1)
    double load_change_eps = 0.5;   ///< dmpi_ps delta that triggers adaptation
    /// Memory-aware balancing (the AppLeS-style paging avoidance the paper
    /// cites): cap each node's block so registered arrays fit its physical
    /// memory.  Nodes over their memory page regardless
    /// (Runtime::kPagingSlowdown x compute), so turning this off makes the
    /// cost visible.
    bool memory_aware = true;
    // ---- crash resilience: diskless buddy replication (docs/FAULTS.md) ----
    /// Shadow each node's owned rows of every registered array onto its
    /// replication buddy (the successor in the active ring) so a crashed
    /// node's block is restored with real contents instead of zero-fill.
    bool replicate = false;
    /// Minimum seconds between incremental replica refreshes (dirty-row
    /// deltas piggybacked on the monitoring cycle).  0 refreshes every
    /// cycle.  Positive values must be at least the dmpi_ps monitoring
    /// period — refreshes ride the monitoring protocol and cannot run more
    /// often than it.
    double replica_refresh_s = 0.0;
};

/// The machine as the balancer and the removal predictor see it: agreed on
/// at setup (or handed over in a bootstrap) and fixed after.
struct MachineModel {
    std::vector<double> speeds;    ///< per world rank
    std::vector<double> memories;  ///< bytes per world rank (0 = unlimited)
    CommCosts comm_costs;
    std::vector<PhaseComm> phases; ///< each phase's communication shape

    /// Predicted per-cycle communication (CPU, wire) seconds on `nodes`.
    std::pair<double, double> comm_for(int nodes) const;
};

/// One node as the leader sees it this cycle: its membership and what its
/// dmpi_ps daemon reports.
struct NodeReport {
    bool active = false;
    bool crashed = false;
    bool stale = false; ///< the report is older than the staleness window
    double load = 0.0;  ///< the daemon's average competing processes
    int generation = 0; ///< node incarnation (0 until revived)
};

/// A quarantine transition the leader applied to a load snapshot.
struct QuarantineFlip {
    int node = -1;
    bool quarantined = false; ///< false: readmitted
    int streak = 0;           ///< the bad (or clean) reports that flipped it
};

/// Everything one cycle's decision reads.
struct CycleView {
    int redistributions = 0; ///< so far (max_redistributions caps them)
    double max_delta = 0.0;  ///< allreduced largest dmpi_ps delta
    double max_wall = 0.0;   ///< allreduced slowest wall time of the cycle
    const std::vector<int>& active;       ///< the active set, in group order
    const Distribution& dist;             ///< its layout
    const std::vector<double>& row_costs; ///< global per-row cost estimates
    const MachineModel& model;
    /// Decision points only (AdaptPolicy::decision_due): the leader's
    /// snapshot and the registered arrays' bytes per row.
    const LoadSnapshot* snapshot = nullptr;
    std::size_t row_bytes = 0;
};

/// What the runtime carries out after a step.
struct AdaptAction {
    enum class Kind {
        None,
        EnterGrace,   ///< a load changed: measure for a grace period
        Redistribute, ///< grace ended: apply (members, counts)
        Skip,         ///< grace ended: the change is below the threshold
        EndPostGrace, ///< post-grace ended without a drop
        DropPhysical, ///< post-grace ended: loaded nodes leave the active set
        DropLogical,  ///< post-grace ended: loaded nodes keep a minimum block
    };
    Kind kind = Kind::None;
    /// Grace end: the candidate set and its blocks.  A drop: the new layout.
    std::vector<int> members, counts;
    int readds = 0;          ///< Redistribute: members that were not active
    double measured_s = 0.0; ///< post-grace end: mean slowest cycle
    /// Post-grace end: the §4.4 predictor's verdict, when there was a
    /// removal question (some but not all active nodes loaded).
    std::optional<RemovalDecision> removal;
};

class AdaptPolicy {
public:
    enum class Mode { Monitor, Grace, PostGrace };

    /// Cycles observed after a redistribution before the §4.4 removal
    /// decision (the paper's fixed window).
    static constexpr int kPostGraceCycles = 10;
    /// A grace end skips the redistribution unless some block changes by
    /// more than this fraction of an average block.
    static constexpr double kMinCountChange = 0.1;
    /// Rows each logically dropped node keeps.
    static constexpr int kLogicalMinRows = 1;
    /// Consecutive stale reports before a node is quarantined (logically
    /// dropped from the candidate set; docs/FAULTS.md).
    static constexpr int kQuarantineBadReports = 3;
    /// Consecutive clean reports before a quarantined node is readmitted.
    static constexpr int kReadmitCleanCycles = 8;

    /// The machine's progress.
    struct MonitorState {
        Mode mode = Mode::Monitor;
        int grace_count = 0;
        int post_count = 0;
        std::vector<double> post_cycle_max;
    };
    /// What a retried monitoring round restores before it replays the
    /// cycle: the progress, and the baseline when this cycle's step is a
    /// grace end (the one step that moves it), so the replay decides on
    /// the loads the aborted attempt started from.
    struct Checkpoint {
        MonitorState mon;
        std::vector<double> baseline; ///< empty unless a grace end is due
    };

    AdaptPolicy(const RuntimeOptions& opts, int world);

    // ---- every active rank, every cycle ----

    /// This node's load delta against the baseline.
    double load_delta(int node, double load) const;
    /// Whether this cycle's step ends a grace or post-grace period, so it
    /// needs CycleView::snapshot (and at a grace end, the cost vector).
    bool decision_due() const;
    AdaptAction step(const CycleView& v);

    // ---- the leader ----

    /// Once per cycle: update every live node's report streaks and return
    /// the largest load delta the removed nodes contribute.  A pending
    /// quarantine flip or a rejoiner ready to join counts as a change.
    double scan_reports(const std::vector<NodeReport>& reports, int cycle);
    /// Whether revived node `node` (incarnation `generation`) is owed a
    /// bootstrap; if so, records it as sent this cycle.
    bool claim_bootstrap(int node, int generation, int cycle);
    /// The snapshot to broadcast at a decision point.  Applies the flips
    /// the last scan found due (appending them to `flips`); a crashed or
    /// stale node's load falls back to its baseline.
    LoadSnapshot snapshot(const std::vector<NodeReport>& reports, int cycle,
                          std::vector<QuarantineFlip>& flips);

    // ---- hand-over ----

    /// Take the leader's view (a revived node's bootstrap, a re-add).
    void adopt(std::vector<double> baseline, std::vector<char> quarantined);
    /// Grace measurements start over (crash repair moved the rows).
    void restart_grace() { mon_.grace_count = 0; }
    /// A re-added node observes the new layout with the others.
    void start_post_grace();
    /// Whether `node` came back in a newer incarnation than the one last
    /// seen active; records it.
    bool saw_generation(int node, int generation);

    Mode mode() const { return mon_.mode; }
    Checkpoint checkpoint() const;
    void restore(Checkpoint c);
    /// The loads the current distribution was computed for.
    const std::vector<double>& baseline_loads() const { return baseline_; }
    const std::vector<char>& quarantined() const { return quarantined_; }

private:
    /// A revived node the leader bootstrapped at least one cycle ago (the
    /// reborn skips its bootstrap cycle).  Never-revived nodes pass.
    bool rejoin_ready(std::size_t w, int generation, int cycle) const;
    AdaptAction end_grace(const CycleView& v);
    AdaptAction end_post_grace(const CycleView& v);
    /// The balancer's view of `members` (world ranks) under `loads`, with
    /// the comm term of a `comm_nodes`-node configuration.
    BalanceInput balance_input(const std::vector<int>& members,
                               const std::vector<double>& loads,
                               int comm_nodes, const CycleView& v) const;
    /// Block shares of `in` under the configured scheme.
    std::vector<double> shares(const BalanceInput& in) const;
    /// Walk `shares` over the cost prefix and cap by memory per member.
    std::vector<int> blocks(const std::vector<double>& shares,
                            const std::vector<int>& members, int min_rows,
                            const CycleView& v) const;

    /// Per world rank.  All but seen_gen are the leader's.
    struct Node {
        int bad = 0, clean = 0;       ///< consecutive stale / fresh reports
        bool flip_due = false;        ///< the last scan found a flip due
        int bootstrapped_gen = 0;     ///< incarnation bootstrapped
        int bootstrap_cycle = -1;     ///< cycle its bootstrap was sent
        int seen_gen = 0;             ///< incarnation last seen active
    };

    RuntimeOptions opts_;
    MonitorState mon_;
    std::vector<double> baseline_;  ///< per world rank
    std::vector<char> quarantined_; ///< per world rank, from the snapshot
    std::vector<Node> nodes_;
};

}  // namespace dynmpi
