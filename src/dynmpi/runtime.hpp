// The Dyn-MPI runtime (paper §4): the public API an application uses.
//
// Lifecycle:
//   Runtime rt(rank, N);
//   rt.register_dense / register_sparse          — §4.1 allocation
//   rt.init_phase, rt.add_array_access           — phases + DRSDs (§2.2)
//   rt.commit_setup()                            — calibration µ-benchmarks,
//                                                  initial distribution
//   loop over phase cycles:
//     rt.begin_cycle();
//     if (rt.participating())
//        ... compute on rt.start_iter()/end_iter(), exchange halos with
//        rt.send_rel / rt.recv_rel, charge work via rt.run_phase(...) ...
//     rt.end_cycle();                            — monitor, adapt (§4.2–4.4)
//
// end_cycle() drives the three-mode Monitor -> Grace -> PostGrace machine of
// §4.2-4.4.  Its rules live in AdaptPolicy (adapt_policy.hpp), a value type
// every rank steps identically on world-collectively exchanged data, so
// the ranks never disagree.  The Runtime is its I/O: the per-cycle
// allreduce, the leader's load snapshot and its broadcast, the cost-vector
// allgather, the status and bootstrap messages, crash repair and the
// redistributions the policy's actions call for.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dynmpi/adapt_policy.hpp"
#include "dynmpi/dense_array.hpp"
#include "dynmpi/distribution.hpp"
#include "dynmpi/redistributor.hpp"
#include "dynmpi/replica.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "dynmpi/timing.hpp"
#include "mpisim/collectives.hpp"
#include "support/trace.hpp"

namespace dynmpi {

/// What happened in one phase cycle (for benches and tests).
struct CycleRecord {
    int cycle = 0;
    double start_s = 0.0;
    double wall_s = 0.0;     ///< this rank's begin→end wall time
    double max_wall_s = 0.0; ///< active-set max (own wall when not adapting)
    int mode = 0;            ///< 0 monitor / 1 grace / 2 post-grace
    bool redistributed = false;
};

/// A structured record of one adaptation decision (for reports and tests).
struct AdaptationEvent {
    /// One kind per DYNMPI_ADAPTATION row of support/trace_events.def,
    /// which also names the trace event (and its meaning) of each.
    enum class Kind {
#define DYNMPI_ADAPTATION(kind, ...) kind,
#include "support/trace_events.def"
    };
    Kind kind = Kind::LoadChange;
    int cycle = 0;
    double time_s = 0.0;
    std::string detail;
};

/// Outcome of one crashed node's row restoration (tests and the chaos
/// invariant "no zero-filled rows while the buddy was alive" read these).
struct RestoreRecord {
    int node = -1;          ///< the crashed owner
    int buddy = -1;         ///< its replication buddy (old-ring successor)
    bool buddy_alive = false;
    bool refreshed = false; ///< a replica refresh had completed beforehand
    int restored = 0;       ///< rows restored with real contents
    int lost = 0;           ///< rows zero-filled and handed to the app
};

struct RuntimeStats {
    int cycles = 0;
    int redistributions = 0;
    int physical_drops = 0;
    int logical_drops = 0;
    int readds = 0;
    int crash_repairs = 0;      ///< crashed nodes removed with row recovery
    int rejoins = 0;            ///< revived nodes readmitted to the active set
    int restored_rows = 0;      ///< crash-adopted rows restored from replicas
    int quarantines = 0;        ///< nodes quarantined for bad reports
    int quarantine_readmits = 0;
    int stale_fallbacks = 0;    ///< stale-report observations (leader only)
    double redist_wall_s = 0.0; ///< total time spent inside redistributions
    std::uint64_t replica_bytes = 0; ///< replica payload shipped by this rank
    std::vector<RestoreRecord> restores;
    std::vector<CycleRecord> history;
    std::vector<AdaptationEvent> events;
    RedistStats transfer;
};

class Runtime {
public:
    /// Compute slowdown of a node whose local rows exceed its memory.
    static constexpr double kPagingSlowdown = 4.0;
    /// Load reports older than this fall back to the last-known value.  The
    /// effective window is max(this, 2 x the dmpi_ps period), so slow
    /// daemons are not misread as faulty ones (docs/FAULTS.md).
    static constexpr double kReportStalenessS = 3.0;

    /// `global_rows` is the size of the distributed dimension shared by all
    /// registered arrays (and the iteration space of phases).
    Runtime(msg::Rank& rank, int global_rows, RuntimeOptions opts = {});

    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    // ---- setup (before commit_setup) ----

    DenseArray& register_dense(const std::string& name, int row_elems,
                               std::size_t elem_bytes);
    SparseMatrix& register_sparse(const std::string& name, int global_cols);

    /// Declare a phase over iterations [lo, hi) with the given communication
    /// shape; returns the phase id.
    int init_phase(int lo, int hi, PhaseComm comm);

    /// Attach a DRSD to a registered array (paper's DMPI_add_array_access).
    void add_array_access(const std::string& array, AccessMode mode,
                          int phase, int a = 1, int b = 0);

    /// Collective: calibrate the comm model, agree on node speeds, set the
    /// initial (even block) distribution and allocate rows.
    void commit_setup();

    // ---- per-cycle ----

    void begin_cycle();
    void end_cycle();

    /// Manual REDISTRIBUTE (the related-work annotation the paper contrasts
    /// itself against — here the burden really is on the programmer):
    /// collectively apply an explicit block assignment over the current
    /// active set.  Must be called between cycles by every world rank.
    void redistribute_manual(const std::vector<int>& counts);

    bool participating() const;
    int rel_rank() const;
    int num_active() const { return active_.size(); }

    /// Inclusive iteration bounds of this node for a phase (paper-style);
    /// start > end when the node holds nothing.  Precondition: the phase's
    /// iterations form at most one interval, as under a block layout.  A
    /// cyclic layout deals out many, and a `for (i = start; i <= end; ++i)`
    /// loop would walk rows this node does not own, so both calls throw
    /// there: walk my_iters(phase) instead.
    int start_iter(int phase = 0) const;
    int end_iter(int phase = 0) const;
    /// This node's iterations for a phase (empty on a removed node).  The
    /// set is built once per layout: the reference stays valid, and names
    /// the same object, until the layout changes.  end_cycle() and
    /// redistribute_manual() can change it, so copy the set to keep it
    /// across either.
    const RowSet& my_iters(int phase = 0) const;

    /// Charge this cycle's compute for a phase and (during grace periods)
    /// record per-iteration measurements.  `row_costs` must align with
    /// my_iters(phase).to_vector().
    void run_phase(int phase, const std::vector<double>& row_costs);

    // ---- relative-rank messaging ----

    /// `charged` as in msg::Rank::send: the bytes the model charges when
    /// fewer are copied (0 charges `bytes`).
    void send_rel(int rel_dst, int tag, const void* data, std::size_t bytes,
                  std::size_t charged = 0);
    std::size_t recv_rel(int rel_src, int tag, void* data,
                         std::size_t capacity);

    /// Global reduction with removed-node semantics (§4.4): active nodes
    /// compute the reduction; removed nodes skip the send-in but receive the
    /// result (send-out).  Must be called by every world rank.
    /// `Op` is msg::OpSum or msg::OpMax.
    template <typename Op>
    double allreduce_active(double value, Op op);

    // ---- failure recovery ----

    /// Rows this node adopted through crash recovery since the last call
    /// that could NOT be restored and were zero-filled.  Without
    /// replication (options().replicate == false) that is every adopted
    /// row — the runtime is checkpointless and a dead node's in-flight row
    /// contents are lost by design.  With replication on, restoration from
    /// the buddy's copies normally leaves this empty; a non-empty result is
    /// the double-crash diagnostic (owner and buddy both died within one
    /// refresh interval) and the application must re-initialize those rows.
    RowSet take_recovered_rows();

    // ---- introspection ----

    const Distribution& distribution() const { return dist_; }
    const msg::Group& active_group() const { return active_; }
    const RuntimeStats& stats() const { return stats_; }
    const CommCosts& comm_costs() const { return model_.comm_costs; }
    DenseArray& dense(const std::string& name);
    msg::Rank& rank() { return rank_; }
    int global_rows() const { return global_rows_; }
    const RuntimeOptions& options() const { return opts_; }
    /// Last grace period's assembled global cost vector (for tests).
    const std::vector<double>& last_row_costs() const { return row_costs_; }

private:
    struct Phase {
        int lo = 0, hi = 0;
        IterationTimer timer;
        bool measured_this_cycle = false;
    };

    ArrayInfo& info(const std::string& name);
    void record_event(AdaptationEvent::Kind kind, std::string detail);
    /// Emit instant `id` of this cycle (its `cycle` arg first) when tracing.
    void trace_instant(support::InstantId id,
                       std::vector<support::TraceArg> args) const;

    /// This rank's iteration sets under one layout: the whole owned set and
    /// its clip to each phase, all empty on a removed node.
    struct IterSets {
        Distribution dist;  ///< the layout they were built for
        int rel = -1;       ///< this rank's relative rank in it, -1 if removed
        RowSet owned;
        std::vector<RowSet> phases;
    };
    /// The sets for the current (dist_, relative rank), rebuilt only when
    /// that pair (compared by value) or the phase count differs from the
    /// one they were built for.  So no assignment to dist_ or active_ has
    /// to invalidate anything.
    const IterSets& iter_sets() const;
    /// This rank's whole owned set under the current layout.
    const RowSet& owned_iters() const { return iter_sets().owned; }

    double my_load() const;       ///< dmpi_ps average competing
    double node_speed() const;

    // ---- failure recovery internals ----

    /// Salt for protocol groups: changes whenever a crash starts a new
    /// recovery epoch, so retried rounds can never match messages from
    /// abandoned ones.  0 (hash-neutral) until the
    /// first fault.
    msg::Group protocol_group() const;

    /// Leader: read every node's membership and daemon report into
    /// reports_ (a report is stale past the staleness window).
    void read_reports();

    /// Drop crashed members from the active set, left-merging their row
    /// blocks into surviving predecessors (zero data movement).  Without
    /// replication, adopted rows are recorded in recovered_rows_; with it,
    /// the replica store queues their restores.  Returns true if anything
    /// changed.
    bool repair_active_set();

    // ---- rejoin internals ----

    /// Leader only: hand a freshly restarted (revived) node the state it
    /// needs to rejoin as a removed follower of the status channel.
    void leader_send_bootstraps();

    /// Reborn-rank side of commit_setup: skip the setup collectives and
    /// wait for the leader's bootstrap instead.
    void bootstrap_rejoin();

    /// Monitoring dispatch with failure recovery: retries the cycle's
    /// control protocol on an epoch-salted group until it completes without
    /// a peer failure or revocation.
    void run_monitoring(CycleRecord& rec, double wall);

    // ---- monitoring internals (all control-plane traffic) ----

    /// One consistent view of every node's dmpi_ps average: relative rank 0
    /// builds the policy's snapshot (quarantine flips applied) and
    /// broadcasts it within the protocol group.
    LoadSnapshot read_world_loads(const msg::Group& pg);
    /// Assemble the global per-row cost vector (row_costs_) from every
    /// active rank's grace-period estimates.
    void gather_row_costs(const msg::Group& pg);

    /// Per-cycle status messages from relative rank 0 to every removed node
    /// (steady heartbeat, or a re-add instruction carrying full state when
    /// `grace_end` redistributes).
    void send_statuses(const msg::Group& active_before,
                       const AdaptAction* grace_end);
    void active_cycle_monitor(CycleRecord& rec, double wall);
    /// Carry out a step's action and emit the trace instants it describes.
    void carry_out(const AdaptAction& a, const msg::Group& active_before,
                   double max_delta);
    /// Follow the leader's status: track the active set, or on a re-add
    /// adopt the layout being left and join the redistribution through
    /// apply_distribution.
    void removed_cycle_follow();

    /// Allocate the rows this node's accesses need under the current layout.
    void ensure_needed_rows();
    /// Paging factor for this node right now (1.0 when data fits).
    double paging_factor() const;

    /// Restart every phase's timer for the current ownership (a new grace
    /// window).
    void restart_phase_timers();
    /// Redistribute to (new_active, new_dist) and emit the redist.apply
    /// span (per-array breakdown) and the redist metrics.
    void apply_distribution(const msg::Group& new_active,
                            const Distribution& new_dist);

    msg::Rank& rank_;
    int global_rows_;
    RuntimeOptions opts_;
    bool committed_ = false;

    msg::Group world_;
    msg::Group active_;
    Distribution dist_;
    mutable IterSets iters_;  ///< cache behind iter_sets()
    std::vector<ArrayInfo> arrays_;
    std::vector<Phase> phases_;
    MachineModel model_;
    AdaptPolicy policy_;
    std::uint64_t redist_seq_ = 0; ///< restored with the policy's progress
    std::vector<double> row_costs_; ///< latest global per-row cost estimates
    std::vector<NodeReport> reports_; ///< leader: this cycle's reads

    double cycle_start_ = 0.0;
    bool in_cycle_ = false;
    std::uint64_t sendout_seq_ = 0;

    RowSet recovered_rows_;        ///< crash-adopted rows awaiting the app
    bool statuses_sent_this_cycle_ = false;
    std::unique_ptr<ReplicaStore> replicas_; ///< null unless replicate

    /// Record Kind::Rejoin for every member of `now` whose node generation
    /// advanced since it was last active (i.e. it came back via revive).
    void record_rejoins(const msg::Group& now);

    RuntimeStats stats_;
};

}  // namespace dynmpi
