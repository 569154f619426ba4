#include "dynmpi/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string_view>
#include <utility>

#include "dynmpi/control_wire.hpp"
#include "mpisim/rank.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"
#include "support/rng.hpp"

namespace dynmpi {

Runtime::Runtime(msg::Rank& rank, int global_rows, RuntimeOptions opts)
    : rank_(rank),
      global_rows_(global_rows),
      opts_(std::move(opts)),
      world_(msg::Group::world(rank)),
      active_(world_),
      policy_(opts_, world_.size()) {
    DYNMPI_REQUIRE(global_rows_ > 0, "need at least one row");
    if (opts_.replicate && opts_.replica_refresh_s > 0.0) {
        double period = sim::to_seconds(rank_.ps_daemon().period());
        DYNMPI_REQUIRE(
            opts_.replica_refresh_s >= period,
            "replica_refresh_s (" + std::to_string(opts_.replica_refresh_s) +
                "s) is shorter than the dmpi_ps monitoring period (" +
                std::to_string(period) +
                "s): replica refreshes piggyback on the monitoring cycle "
                "and cannot run more often than it");
    }
    dist_ = opts_.initial_dist == Distribution::Kind::Block
                ? Distribution::even_block(0, global_rows_, world_.size())
                : Distribution::cyclic(0, global_rows_, world_.size(),
                                       opts_.cyclic_block_size);
}

namespace {
std::string counts_string(const std::vector<int>& counts) {
    std::string s;
    for (int c : counts) s += (s.empty() ? "" : "/") + std::to_string(c);
    return s;
}

using support::CounterId;
using support::GaugeId;
using support::HistogramId;
using support::InstantId;
using support::SpanId;
using support::targ;

/// Each adaptation kind's trace event and counter, in Kind order.
struct AdaptationIds {
    InstantId event;
    CounterId counter;
};
constexpr AdaptationIds kAdaptationIds[] = {
#define DYNMPI_ADAPTATION(kind, event, counter, label) \
    {InstantId::event, CounterId::counter},
#include "support/trace_events.def"
};

/// Each counter's scope column in the catalog, in CounterId order.
constexpr std::string_view kCounterScopes[] = {
#define DYNMPI_COUNTER(id, name, scope, meaning) scope,
#include "support/trace_events.def"
};

/// Trace names of the modes, indexed by CycleRecord::mode.
constexpr const char* kModeNames[] = {"monitor", "grace", "post_grace"};

/// A runtime-protocol tag: `salt` names the protocol, `key` the round.
std::uint64_t runtime_tag(std::uint64_t salt, std::uint64_t key) {
    return msg::make_tag(msg::TagSpace::Runtime, hash_combine(salt, key));
}

/// Bootstrap for a restarted rank, unique per (node, incarnation).
std::uint64_t bootstrap_tag(int node, int generation) {
    return runtime_tag(0xB0075ULL,
                       hash_combine(static_cast<std::uint64_t>(node),
                                    static_cast<std::uint64_t>(generation)));
}

/// The leader's status to the removed nodes, one per cycle.
std::uint64_t status_tag(int cycle) {
    return runtime_tag(0x57A705ULL, static_cast<std::uint64_t>(cycle));
}

/// start_iter/end_iter bound one run of iterations; a cyclic set has many.
const RowSet& one_run(const RowSet& it) {
    DYNMPI_REQUIRE(it.intervals().size() <= 1,
                   "start_iter/end_iter on a phase whose iterations are not "
                   "one contiguous range (cyclic layout): walk "
                   "my_iters(phase) instead");
    return it;
}
}  // namespace

void Runtime::trace_instant(InstantId id,
                            std::vector<support::TraceArg> args) const {
    if (!support::trace().enabled()) return;
    args.insert(args.begin(), targ("cycle", stats_.cycles));
    support::trace().instant(rank_.hrtime(), rank_.id(), id, std::move(args));
}

void Runtime::record_event(AdaptationEvent::Kind kind, std::string detail) {
    AdaptationEvent e{kind, stats_.cycles, rank_.hrtime(), {}};
    const AdaptationIds& ids = kAdaptationIds[static_cast<std::size_t>(kind)];
    trace_instant(ids.event, {targ("detail", detail)});
    // A kind every active rank records counts once, on the active leader
    // (scope "leader"); one that a single rank records counts on that rank.
    if (support::metrics().enabled() &&
        (active_.index_of(rank_.id()) == 0 ||
         kCounterScopes[static_cast<std::size_t>(ids.counter)] != "leader"))
        support::metrics().counter(ids.counter).add(1);
    e.detail = std::move(detail);
    stats_.events.push_back(std::move(e));
}

// ---------------------------------------------------------------------------
// Setup and queries
// ---------------------------------------------------------------------------

ArrayInfo& Runtime::info(const std::string& name) {
    for (auto& a : arrays_)
        if (a.array->name() == name) return a;
    throw Error("unknown Dyn-MPI array: " + name);
}

DenseArray& Runtime::register_dense(const std::string& name, int row_elems,
                                    std::size_t elem_bytes) {
    DYNMPI_REQUIRE(!committed_, "registration after commit_setup");
    arrays_.push_back({std::make_unique<DenseArray>(name, global_rows_,
                                                    row_elems, elem_bytes),
                       {}});
    return static_cast<DenseArray&>(*arrays_.back().array);
}

SparseMatrix& Runtime::register_sparse(const std::string& name,
                                       int global_cols) {
    DYNMPI_REQUIRE(!committed_, "registration after commit_setup");
    arrays_.push_back(
        {std::make_unique<SparseMatrix>(name, global_rows_, global_cols), {}});
    return static_cast<SparseMatrix&>(*arrays_.back().array);
}

int Runtime::init_phase(int lo, int hi, PhaseComm comm) {
    DYNMPI_REQUIRE(!committed_, "init_phase after commit_setup");
    DYNMPI_REQUIRE(lo >= 0 && hi <= global_rows_ && lo < hi,
                   "phase bounds outside the iteration space");
    phases_.push_back(Phase{lo, hi, IterationTimer{}});
    model_.phases.push_back(comm);
    return static_cast<int>(phases_.size()) - 1;
}

void Runtime::add_array_access(const std::string& array, AccessMode mode,
                               int phase, int a, int b) {
    DYNMPI_REQUIRE(!committed_, "add_array_access after commit_setup");
    DYNMPI_REQUIRE(phase >= 0 && phase < static_cast<int>(phases_.size()),
                   "unknown phase");
    info(array).accesses.push_back(Drsd{array, mode, phase, a, b});
}

void Runtime::commit_setup() {
    DYNMPI_REQUIRE(!committed_, "commit_setup called twice");
    DYNMPI_REQUIRE(!phases_.empty(), "define at least one phase");

    if (opts_.replicate)
        replicas_ = std::make_unique<ReplicaStore>(rank_, arrays_);
    if (rank_.node().generation() > 0) {
        // This process was restarted after its node revived: the rest of
        // the world is mid-run, so the setup collectives below are long
        // gone.  Rejoin through the leader's bootstrap instead.
        bootstrap_rejoin();
        return;
    }

    model_.comm_costs = opts_.calibrate ? calibrate_comm_costs(rank_, world_)
                                        : CommCosts{};
    model_.speeds = msg::allgather_scalar(rank_, world_, node_speed());
    model_.memories = msg::allgather_scalar(
        rank_, world_, static_cast<double>(rank_.node().memory_bytes()));

    ensure_needed_rows(); // zero-filled; the app initializes them
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    committed_ = true;
}

void Runtime::ensure_needed_rows() {
    for (auto& ai : arrays_)
        ai.array->ensure_rows(needed_rows(active_, dist_, rank_.id(),
                                          ai.accesses, global_rows_));
}

bool Runtime::participating() const {
    return active_.contains(rank_.id());
}

int Runtime::rel_rank() const {
    int rel = active_.index_of(rank_.id());
    DYNMPI_REQUIRE(rel >= 0, "rel_rank on a removed node");
    return rel;
}

const Runtime::IterSets& Runtime::iter_sets() const {
    const int rel = active_.index_of(rank_.id());
    if (rel == iters_.rel && iters_.phases.size() == phases_.size() &&
        iters_.dist == dist_)
        return iters_;
    // Built aside and moved in, so the new sets never reuse the old ones'
    // storage: a reference kept across a layout change dangles (and ASan
    // reports it) rather than quietly reading the new layout's sets.
    IterSets fresh{dist_, rel, rel >= 0 ? dist_.iters_of(rel) : RowSet{}, {}};
    for (const Phase& p : phases_)
        fresh.phases.push_back(fresh.owned.clip(p.lo, p.hi));
    iters_ = std::move(fresh);
    return iters_;
}

const RowSet& Runtime::my_iters(int phase) const {
    DYNMPI_REQUIRE(phase >= 0 && phase < static_cast<int>(phases_.size()),
                   "unknown phase");
    return iter_sets().phases[static_cast<std::size_t>(phase)];
}

int Runtime::start_iter(int phase) const {
    const RowSet& it = one_run(my_iters(phase));
    return it.empty() ? 0 : it.first();
}

int Runtime::end_iter(int phase) const {
    const RowSet& it = one_run(my_iters(phase));
    return it.empty() ? -1 : it.last();
}

DenseArray& Runtime::dense(const std::string& name) {
    auto* p = dynamic_cast<DenseArray*>(info(name).array.get());
    DYNMPI_REQUIRE(p != nullptr, name + " is not a dense array");
    return *p;
}

double Runtime::my_load() const {
    return rank_.ps_daemon().avg_competing();
}

double Runtime::node_speed() const {
    return rank_.node().cpu().params().speed;
}

// ---------------------------------------------------------------------------
// Failure recovery
// ---------------------------------------------------------------------------

msg::Group Runtime::protocol_group() const {
    return msg::Group(active_.members(), rank_.machine().revoke_epoch());
}

void Runtime::leader_send_bootstraps() {
    for (int w : world_.members()) {
        const NodeReport& r = reports_[static_cast<std::size_t>(w)];
        // A revived node is waiting in bootstrap_rejoin.  Hand it the state
        // a removed follower needs, telling it to pick up the status channel
        // from the NEXT cycle (this cycle's send-outs are already in
        // flight).  A leader elected after a crash re-sends — its tracking
        // is stale — and the duplicate is simply never matched.
        if (r.active || r.crashed ||
            !policy_.claim_bootstrap(w, r.generation, stats_.cycles))
            continue;
        const Bootstrap b{
            .next_cycle = static_cast<std::uint64_t>(stats_.cycles + 1),
            .redist_seq = redist_seq_, .sendout_seq = sendout_seq_,
            .active = active_.members(),
            .baseline_loads = policy_.baseline_loads(),
            .speeds = model_.speeds, .memories = model_.memories,
            .quarantined = policy_.quarantined(),
            .comm_costs = model_.comm_costs,
            .group_seqs = rank_.export_group_seqs()};
        rank_.send_wire(w, bootstrap_tag(w, r.generation), encode(b));
    }
}

void Runtime::bootstrap_rejoin() {
    msg::Rank::ControlScope control(rank_);
    std::uint64_t tag = bootstrap_tag(rank_.id(), rank_.node().generation());
    std::vector<std::byte> blob;
    for (;;) {
        try {
            rank_.sync_revocations();
            blob = rank_.recv_wire(msg::kAnySource, tag);
            break;
        } catch (const msg::EpochRevoked&) {
        }
    }
    Bootstrap b = decode_bootstrap(blob, world_.size());
    stats_.cycles = static_cast<int>(b.next_cycle);
    redist_seq_ = b.redist_seq;
    sendout_seq_ = b.sendout_seq;
    active_ = msg::Group(std::move(b.active));
    DYNMPI_CHECK(!active_.contains(rank_.id()),
                 "bootstrap lists the restarted rank as active");
    policy_.adopt(std::move(b.baseline_loads), std::move(b.quarantined));
    model_.speeds = std::move(b.speeds);
    model_.memories = std::move(b.memories);
    model_.comm_costs = b.comm_costs;
    // The leader's collective counters, so this rank's next collective on
    // any shared group lines up with the survivors'.
    rank_.import_group_seqs(b.group_seqs);
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    committed_ = true;
}

void Runtime::record_rejoins(const msg::Group& now) {
    auto& cluster = rank_.machine().cluster();
    for (int w : now.members()) {
        if (!policy_.saw_generation(w, cluster.node_generation(w))) continue;
        ++stats_.rejoins;
        record_event(AdaptationEvent::Kind::Rejoin,
                     "node " + std::to_string(w) +
                         " readmitted after restart");
    }
}

// dynmpi-lint: repair-critical
RowSet Runtime::take_recovered_rows() {
    return std::exchange(recovered_rows_, RowSet{});
}

void Runtime::read_reports() {
    auto& cluster = rank_.machine().cluster();
    reports_.resize(static_cast<std::size_t>(world_.size()));
    for (int w : world_.members()) {
        NodeReport& r = reports_[static_cast<std::size_t>(w)];
        r = NodeReport{.active = active_.contains(w),
                       .crashed = cluster.node_crashed(w),
                       .generation = cluster.node_generation(w)};
        if (r.crashed) continue;
        const sim::PsDaemon& d = cluster.daemon(w);
        r.load = d.avg_competing();
        // No completed window yet means nothing to be stale against.
        r.stale = d.last_sample_time() >= 0 &&
                  rank_.hrtime() - sim::to_seconds(d.last_sample_time()) >
                      std::max(kReportStalenessS,
                               2.0 * sim::to_seconds(d.period()));
    }
}

// Membership repair must stay local and total: every surviving rank derives
// the identical left-merge from cluster state alone, with no messaging that
// could throw mid-repair.  The linter (EXC002) enforces this.
// dynmpi-lint: repair-critical
bool Runtime::repair_active_set() {
    auto& cluster = rank_.machine().cluster();
    std::vector<int> dead, survivors;
    for (int m : active_.members())
        (cluster.node_crashed(m) ? dead : survivors).push_back(m);
    if (dead.empty()) return false;
    DYNMPI_REQUIRE(!survivors.empty(), "every active node crashed");

    if (!participating()) {
        // Removed nodes only track membership; they own no rows.
        active_ = msg::Group(std::move(survivors));
        return true;
    }

    // Checkpointless row recovery: each dead member's block is left-merged
    // into its nearest surviving predecessor (the first survivor absorbs any
    // dead prefix).  No data moves between survivors; adopted rows start
    // zero-filled.  With replication on, a restore job per dead node is
    // queued so the adopter refills them from the buddy's copies; without
    // it they go to the application via take_recovered_rows().
    std::vector<int> old_counts = dist_.counts();
    std::vector<int> new_counts;
    int carry = 0;
    for (int j = 0; j < active_.size(); ++j) {
        int c = old_counts[static_cast<std::size_t>(j)];
        if (cluster.node_crashed(active_.member(j))) {
            if (!new_counts.empty())
                new_counts.back() += c;
            else
                carry += c;
        } else {
            new_counts.push_back(c + carry);
            carry = 0;
        }
    }

    if (replicas_) replicas_->queue_restores(active_, dist_);

    msg::Group new_active(survivors);
    Distribution new_dist = Distribution::block(0, global_rows_, new_counts);
    RowSet adopted =
        owned_rows(new_active, new_dist, rank_.id())
            .subtract(owned_rows(active_, dist_, rank_.id()));

    active_ = new_active;
    dist_ = new_dist;
    ensure_needed_rows();
    if (replicas_)
        replicas_->ring_changed(owned_iters(), stats_.cycles);
    else
        recovered_rows_ = recovered_rows_.unite(adopted);
    stats_.crash_repairs += static_cast<int>(dead.size());
    for (int d : dead)
        record_event(AdaptationEvent::Kind::NodeCrash,
                     "node " + std::to_string(d) + " removed");
    for (int d : dead)
        trace_instant(InstantId::RuntimeCrashRepair,
                      {targ("node", d), targ("rows_adopted", adopted.count())});
    return true;
}

void Runtime::run_monitoring(CycleRecord& rec, double wall) {
    // Snapshot the policy's progress so a retried attempt replays the
    // cycle's protocol from the same starting point.
    const AdaptPolicy::Checkpoint snap = policy_.checkpoint();
    const std::uint64_t seq_snap = redist_seq_;
    bool repaired = false;
    for (int attempt = 0;; ++attempt) {
        DYNMPI_CHECK(attempt <= 2 * world_.size() + 4,
                     "failure recovery did not converge");
        rank_.sync_revocations();
        repaired = repair_active_set() || repaired;
        if (repaired && policy_.mode() == AdaptPolicy::Mode::Grace &&
            participating()) {
            // A crash repair changed row ownership mid-grace: measurements
            // taken against the old distribution no longer align with
            // my_iters, so restart the grace window for the new ownership.
            // (Re-applied after every retry's snapshot restore so all
            // attempts — and all surviving ranks — see the same state.)
            policy_.restart_grace();
            restart_phase_timers();
        }
        try {
            if (participating()) {
                if (replicas_)
                    replicas_->perform_restores(stats_, recovered_rows_);
                active_cycle_monitor(rec, wall);
            } else {
                removed_cycle_follow();
            }
            return;
        } catch (const msg::EpochRevoked&) {
            // A crash started a new epoch: retry on it.
        }
        policy_.restore(snap);
        redist_seq_ = seq_snap;
    }
}

double Runtime::paging_factor() const {
    double mem = model_.memories.empty()
                     ? 0.0
                     : model_.memories[static_cast<std::size_t>(rank_.id())];
    if (mem <= 0) return 1.0;
    std::size_t used = 0;
    for (const auto& ai : arrays_) used += ai.array->local_bytes();
    return static_cast<double>(used) > mem ? kPagingSlowdown : 1.0;
}

void Runtime::send_rel(int rel_dst, int tag, const void* data,
                       std::size_t bytes, std::size_t charged) {
    rank_.send(active_.member(rel_dst), tag, data, bytes, charged);
}

std::size_t Runtime::recv_rel(int rel_src, int tag, void* data,
                              std::size_t capacity) {
    return rank_.recv(active_.member(rel_src), tag, data, capacity);
}

template <typename Op>
double Runtime::allreduce_active(double value, Op op) {
    rank_.sync_revocations();
    const std::uint64_t tag = runtime_tag(0x5e4d007ULL, sendout_seq_++);
    if (participating()) {
        double r = msg::allreduce_scalar(rank_, active_, value, op);
        if (rel_rank() == 0)
            for (int w : world_.members())
                if (!active_.contains(w)) rank_.send_wire(w, tag, &r, sizeof r);
        return r;
    }
    const auto bytes = rank_.recv_wire(active_.member(0), tag);
    WireReader in(bytes);
    const double r = in.f64();
    in.finish();
    return r;
}

template double Runtime::allreduce_active(double, msg::OpSum);
template double Runtime::allreduce_active(double, msg::OpMax);

// ---------------------------------------------------------------------------
// Per-cycle driver
// ---------------------------------------------------------------------------

LoadSnapshot Runtime::read_world_loads(const msg::Group& pg) {
    // Relative rank 0 is the single reader of the daemon mesh (a consistent
    // snapshot); the view — loads plus quarantine and joinable flags — is
    // broadcast within the protocol group.
    std::vector<std::byte> blob;
    if (rel_rank() == 0) {
        read_reports();
        std::vector<QuarantineFlip> flips;
        blob = encode(policy_.snapshot(reports_, stats_.cycles, flips));
        for (const QuarantineFlip& f : flips) {
            ++(f.quarantined ? stats_.quarantines : stats_.quarantine_readmits);
            record_event(f.quarantined ? AdaptationEvent::Kind::Quarantine
                                       : AdaptationEvent::Kind::Readmit,
                         "node " + std::to_string(f.node) + " after " +
                             std::to_string(f.streak) +
                             (f.quarantined ? " bad reports"
                                            : " clean reports"));
        }
    }
    msg::bcast(rank_, pg, 0, blob);
    return decode_load_snapshot(blob, world_.size());
}

void Runtime::gather_row_costs(const msg::Group& pg) {
    // Assemble my per-row unloaded cost estimates across phases, aligned to
    // my owned rows in ascending order.  A phase's rows are the owned rows
    // in [lo, hi): one contiguous run of the owned set, starting after the
    // owned rows below lo.
    const RowSet& owned = owned_iters();
    std::vector<double> mine(static_cast<std::size_t>(owned.count()), 0.0);
    for (std::size_t ph = 0; ph < phases_.size(); ++ph) {
        Phase& p = phases_[ph];
        const RowSet& iters = my_iters(static_cast<int>(ph));
        if (iters.empty() || p.timer.cycles_recorded() == 0) continue;
        std::vector<double> est = p.timer.estimates();
        DYNMPI_CHECK(est.size() == static_cast<std::size_t>(iters.count()),
                     "estimate alignment");
        const auto off = static_cast<std::size_t>(owned.clip(0, p.lo).count());
        for (std::size_t i = 0; i < est.size(); ++i) mine[off + i] += est[i];
    }

    // Active-group exchange: every active rank assembles the identical
    // global cost vector (removed nodes own no rows and are synced through
    // the status channel).
    const auto per_rank_costs = msg::allgather(rank_, pg, mine);
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    for (int a = 0; a < active_.size(); ++a) {
        DYNMPI_CHECK(per_rank_costs.length(a) ==
                         static_cast<std::size_t>(dist_.count_of(a)),
                     "cost vector does not match ownership");
        const double* costs = per_rank_costs.data() + per_rank_costs.start(a);
        dist_.for_each_interval(a, [&](RowInterval iv) {
            std::copy(costs, costs + iv.size(), row_costs_.begin() + iv.lo);
            costs += iv.size();
        });
    }
}

void Runtime::redistribute_manual(const std::vector<int>& counts) {
    DYNMPI_REQUIRE(committed_, "redistribute_manual before commit_setup");
    DYNMPI_REQUIRE(!in_cycle_, "redistribute_manual inside a cycle");
    if (participating()) {
        DYNMPI_REQUIRE(static_cast<int>(counts.size()) == active_.size(),
                       "counts must cover the active set");
        apply_distribution(active_,
                           Distribution::block(0, global_rows_, counts));
        record_event(AdaptationEvent::Kind::Redistributed,
                     "manual: blocks " + counts_string(counts));
    }
}

void Runtime::begin_cycle() {
    DYNMPI_REQUIRE(committed_, "begin_cycle before commit_setup");
    DYNMPI_REQUIRE(!in_cycle_, "begin_cycle without end_cycle");
    in_cycle_ = true;
    cycle_start_ = rank_.hrtime();
    for (auto& p : phases_) p.measured_this_cycle = false;
}

void Runtime::run_phase(int phase, const std::vector<double>& row_costs) {
    DYNMPI_REQUIRE(in_cycle_, "run_phase outside a cycle");
    DYNMPI_REQUIRE(participating(), "run_phase on a removed node");
    DYNMPI_REQUIRE(phase >= 0 && phase < static_cast<int>(phases_.size()),
                   "unknown phase");
    Phase& p = phases_[static_cast<std::size_t>(phase)];
    DYNMPI_REQUIRE(static_cast<int>(row_costs.size()) ==
                       my_iters(phase).count(),
                   "row_costs must align with my_iters");

    // Thrashing: every row costs kPagingSlowdown x its CPU time.  The
    // grace-period measurements see the inflation, so even without
    // memory-aware caps the balancer is pushed away from this node.
    const double paging = paging_factor();
    std::vector<double> inflated;
    if (paging > 1.0) {
        inflated = row_costs;
        for (double& c : inflated) c *= paging;
    }
    const std::vector<double>& costs = paging > 1.0 ? inflated : row_costs;
    if (policy_.mode() == AdaptPolicy::Mode::Grace &&
        !p.measured_this_cycle) {
        // A grace cycle's first run of the phase is the only one whose
        // per-row timings are read.
        const msg::RowTimings t = rank_.compute_rows(costs);
        p.timer.record_cycle(t.wall, t.cpu, my_load(), node_speed());
        p.measured_this_cycle = true;
    } else {
        // The batch compute_rows would run, without the per-row timings.
        rank_.compute(std::accumulate(costs.begin(), costs.end(), 0.0));
    }

    // Loaded nodes arrive at the phase's synchronization point late by the
    // scheduler's timeslice residue (see CpuParams::straggle_s).
    double straggle = rank_.node().cpu().sync_straggle();
    if (straggle > 0.0) rank_.sleep(straggle);
}

void Runtime::restart_phase_timers() {
    for (std::size_t ph = 0; ph < phases_.size(); ++ph)
        phases_[ph].timer.start(my_iters(static_cast<int>(ph)).count());
}

void Runtime::apply_distribution(const msg::Group& new_active,
                                 const Distribution& new_dist) {
    // Redistribution moves application data: full CPU + wire cost even when
    // invoked from the (control-plane) monitoring path.
    msg::Rank::ControlScope data_plane(rank_, /*enable=*/false);
    double t0 = rank_.hrtime();
    const int active_before = active_.size();
    RedistContext ctx{global_rows_, &active_, &dist_, &new_active, &new_dist};
    RedistStats ts =
        execute_redistribution(rank_, ctx, arrays_, redist_seq_++);
    stats_.transfer.messages += ts.messages;
    stats_.transfer.bytes += ts.bytes;
    stats_.transfer.rows_moved += ts.rows_moved;
    active_ = new_active;
    dist_ = new_dist;
    ++stats_.redistributions;
    // Ownership just moved wholesale, so the incremental deltas are void:
    // rewrite every buddy's replica set against the new ring (§4.1 whole-row
    // shipping, one hop further).
    if (replicas_)
        replicas_->refresh(active_, owned_iters(), /*wholesale=*/true,
                           redist_seq_, stats_);
    double t1 = rank_.hrtime();
    stats_.redist_wall_s += t1 - t0;
    if (support::trace().enabled()) {
        std::vector<support::TraceArg> args{
            targ("cycle", stats_.cycles),
            targ("active_before", active_before),
            targ("active_after", active_.size()),
            targ("rows", ts.rows_moved),
            targ("bytes", ts.bytes),
            targ("messages", ts.messages)};
        for (const auto& a : ts.per_array) {
            args.push_back(targ("rows." + a.array, a.rows_moved));
            args.push_back(targ("bytes." + a.array, a.bytes));
        }
        support::trace().span(t0, t1, rank_.id(), SpanId::RedistApply,
                              std::move(args));
    }
    if (support::metrics().enabled()) {
        support::metrics().histogram(HistogramId::RedistWallS).record(t1 - t0);
        support::metrics().gauge(GaugeId::RuntimeActiveNodes)
            .set(static_cast<double>(active_.size()));
    }
}

void Runtime::send_statuses(const msg::Group& active_before,
                            const AdaptAction* grace_end) {
    if (active_before.index_of(rank_.id()) != 0) return;
    // A retried recovery attempt must not re-send: the first copy was
    // already delivered (sends never block), and followers recv exactly one
    // status per cycle.
    if (statuses_sent_this_cycle_) return;
    statuses_sent_this_cycle_ = true;
    const bool material =
        grace_end && grace_end->kind == AdaptAction::Kind::Redistribute;
    // Steady heartbeat: the active set after this cycle.
    Status steady;
    steady.active = material ? grace_end->members : active_.members();
    // Re-add instruction: full state, so a returning node can join the
    // redistribution and the subsequent decisions.
    Status readd;
    if (material)
        readd = Status{.readd = true, .active = grace_end->members,
                       .counts = grace_end->counts,
                       .old_active = active_before.members(),
                       .old_counts = dist_.counts(),
                       .redist_seq = redist_seq_, .row_costs = row_costs_,
                       .loads = policy_.baseline_loads(),
                       .quarantined = policy_.quarantined()};
    for (int w : world_.members()) {
        if (active_before.contains(w)) continue;
        if (rank_.machine().cluster().node_crashed(w)) continue;
        const bool back = material && std::count(readd.active.begin(),
                                                 readd.active.end(), w) != 0;
        rank_.send_wire(w, status_tag(stats_.cycles),
                        encode(back ? readd : steady));
    }
}

void Runtime::removed_cycle_follow() {
    Status st = decode_status(
        rank_.recv_wire(active_.member(0), status_tag(stats_.cycles)),
        world_.size(), global_rows_);
    if (!st.readd) {
        active_ = msg::Group(std::move(st.active));
        DYNMPI_CHECK(!active_.contains(rank_.id()),
                     "steady status while listed active");
        return;
    }
    // Re-add: adopt the layout being left, then join the redistribution
    // like any active node.
    redist_seq_ = st.redist_seq;
    row_costs_ = std::move(st.row_costs);
    policy_.adopt(std::move(st.loads), std::move(st.quarantined));
    active_ = msg::Group(std::move(st.old_active));
    dist_ = Distribution::block(0, global_rows_, std::move(st.old_counts));
    apply_distribution(msg::Group(std::move(st.active)),
                       Distribution::block(0, global_rows_,
                                           std::move(st.counts)));
    ++stats_.readds;
    record_event(AdaptationEvent::Kind::Readded,
                 "rejoined as one of " + std::to_string(active_.size()) +
                     " nodes");
    record_rejoins(active_);
    policy_.start_post_grace();
    trace_instant(InstantId::RuntimePostGraceEnter,
                  {targ("post_grace_cycles", AdaptPolicy::kPostGraceCycles)});
}

void Runtime::active_cycle_monitor(CycleRecord& rec, double wall) {
    const msg::Group active_before = active_;
    // Protocol rounds run on the epoch-salted group: after a crash, retried
    // rounds use fresh tags that can never match packets from an abandoned
    // round.
    const msg::Group pg = protocol_group();

    // Load-change detection: each active node contributes its own dmpi_ps
    // delta; relative rank 0 folds in the removed nodes' daemons so a
    // cleared load can trigger a re-add.
    double delta = policy_.load_delta(rank_.id(), my_load());
    bool refresh_go = false;
    if (rel_rank() == 0) {
        read_reports();
        delta = std::max(delta, policy_.scan_reports(reports_, stats_.cycles));
        for (int w : world_.members()) {
            const NodeReport& r = reports_[static_cast<std::size_t>(w)];
            if (r.crashed || !r.stale) continue;
            ++stats_.stale_fallbacks;
            const sim::PsDaemon& d = rank_.machine().cluster().daemon(w);
            const double age =
                rank_.hrtime() - sim::to_seconds(d.last_sample_time());
            trace_instant(InstantId::RuntimeStaleReport,
                          {targ("node", w), targ("age_s", age)});
        }
        leader_send_bootstraps();
        // Replica-refresh go/no-go is the leader's call (time-gated).
        refresh_go = replicas_ && replicas_->refresh_due(
                                      stats_.cycles, opts_.replica_refresh_s);
    }
    std::vector<double> agg{delta, wall, refresh_go ? 1.0 : 0.0};
    agg = msg::allreduce(rank_, pg, std::move(agg), msg::OpMax{});
    rec.max_wall_s = agg[1];
    if (replicas_ && agg[2] > 0.0)
        replicas_->refresh(active_, owned_iters(), /*wholesale=*/false,
                           static_cast<std::uint64_t>(stats_.cycles), stats_);

    CycleView view{.redistributions = stats_.redistributions,
                   .max_delta = agg[0], .max_wall = agg[1],
                   .active = active_.members(), .dist = dist_,
                   .row_costs = row_costs_, .model = model_};
    LoadSnapshot snap;
    if (policy_.decision_due()) {
        snap = read_world_loads(pg);
        view.snapshot = &snap;
        for (const auto& ai : arrays_)
            view.row_bytes += ai.array->nominal_row_bytes();
        if (policy_.mode() == AdaptPolicy::Mode::Grace) gather_row_costs(pg);
    }
    carry_out(policy_.step(view), active_before, agg[0]);
    // Every other cycle's heartbeat (a no-op once sent above).
    send_statuses(active_before, nullptr);
}

void Runtime::carry_out(const AdaptAction& a, const msg::Group& active_before,
                        double max_delta) {
    using Kind = AdaptAction::Kind;
    switch (a.kind) {
    case Kind::None: return;
    case Kind::EnterGrace:
        record_event(AdaptationEvent::Kind::LoadChange,
                     "max dmpi_ps delta " + fmt(max_delta, 2));
        restart_phase_timers();
        trace_instant(InstantId::RuntimeGraceEnter,
                      {targ("grace_cycles", opts_.grace_cycles)});
        return;
    case Kind::Redistribute:
    case Kind::Skip:
        trace_instant(InstantId::BalancerDecision,
                      {targ("scheme",
                            opts_.scheme == BalanceScheme::RelativePower
                                ? "relative_power"
                                : "successive"),
                       targ("candidates", static_cast<int>(a.members.size())),
                       targ("material", a.kind == Kind::Redistribute)});
        stats_.readds += a.readds;
        // Returning nodes must learn about the redistribution before it
        // starts, so statuses go out first.
        send_statuses(active_before, &a);
        if (a.kind == Kind::Skip) {
            record_event(AdaptationEvent::Kind::Skipped,
                         "change below threshold");
            return;
        }
        apply_distribution(msg::Group(a.members),
                           Distribution::block(0, global_rows_, a.counts));
        record_event(AdaptationEvent::Kind::Redistributed,
                     "blocks " + counts_string(a.counts));
        record_rejoins(active_);
        trace_instant(
            InstantId::RuntimePostGraceEnter,
            {targ("post_grace_cycles", AdaptPolicy::kPostGraceCycles)});
        return;
    case Kind::EndPostGrace:
    case Kind::DropPhysical:
    case Kind::DropLogical:
        break;
    }
    // The §4.4 predictor's verdict, before any drop is executed.
    if (a.removal)
        trace_instant(
            InstantId::RuntimeRemovalEval,
            {targ("predicted_unloaded_s", a.removal->predicted_unloaded_s),
             targ("measured_loaded_s", a.removal->measured_loaded_s),
             targ("unloaded_nodes",
                  static_cast<int>(a.removal->unloaded_members.size())),
             targ("drop", a.removal->drop)});
    const bool dropped = a.kind != Kind::EndPostGrace;
    if (dropped) {
        apply_distribution(msg::Group(a.members),
                           Distribution::block(0, global_rows_, a.counts));
        const bool physical = a.kind == Kind::DropPhysical;
        ++(physical ? stats_.physical_drops : stats_.logical_drops);
        record_event(physical ? AdaptationEvent::Kind::Dropped
                              : AdaptationEvent::Kind::LogicalDrop,
                     physical ? "active now " +
                                    std::to_string(active_.size()) + " nodes"
                              : "blocks " + counts_string(a.counts));
    }
    trace_instant(InstantId::RuntimePostGraceExit,
                  {targ("measured_s", a.measured_s), targ("dropped", dropped)});
}

void Runtime::end_cycle() {
    DYNMPI_REQUIRE(in_cycle_, "end_cycle without begin_cycle");
    in_cycle_ = false;
    double wall = rank_.hrtime() - cycle_start_;

    CycleRecord rec{.cycle = stats_.cycles, .start_s = cycle_start_,
                    .wall_s = wall, .max_wall_s = wall,
                    .mode = static_cast<int>(policy_.mode())};

    if (opts_.adapt) {
        // Everything below is daemon-band coordination, not app traffic.
        msg::Rank::ControlScope control(rank_);
        int redist_before = stats_.redistributions;
        statuses_sent_this_cycle_ = false;
        run_monitoring(rec, wall);
        rec.redistributed = stats_.redistributions != redist_before;
    }

    // Observability (guarded: this is the per-cycle hot path).
    if (support::trace().enabled())
        support::trace().span(cycle_start_, rank_.hrtime(), rank_.id(),
                              SpanId::RuntimeCycle,
                              {targ("cycle", rec.cycle),
                               targ("mode", kModeNames[rec.mode]),
                               targ("redistributed", rec.redistributed)});
    if (support::metrics().enabled() && active_.index_of(rank_.id()) == 0) {
        support::metrics().counter(CounterId::RuntimeCycles).add(1);
        support::metrics().histogram(HistogramId::RuntimeCycleWallS)
            .record(rec.max_wall_s);
    }

    stats_.history.push_back(rec);
    ++stats_.cycles;
}

}  // namespace dynmpi
