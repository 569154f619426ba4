#include "dynmpi/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
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
      active_(world_) {
    DYNMPI_REQUIRE(global_rows_ > 0, "need at least one row");
    DYNMPI_REQUIRE(opts_.grace_cycles > 0 && opts_.post_grace_cycles > 0,
                   "grace periods must be positive");
    DYNMPI_REQUIRE(opts_.report_staleness_s > 0.0,
                   "staleness window must be positive");
    DYNMPI_REQUIRE(opts_.quarantine_bad_reports > 0 &&
                       opts_.readmit_clean_cycles > 0,
                   "quarantine thresholds must be positive");
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
    opts_.timing.grace_cycles = opts_.grace_cycles;
    bad_streak_.assign(static_cast<std::size_t>(world_.size()), 0);
    clean_streak_.assign(static_cast<std::size_t>(world_.size()), 0);
    quarantined_.assign(static_cast<std::size_t>(world_.size()), 0);
    joinable_.assign(static_cast<std::size_t>(world_.size()), 1);
    bootstrapped_gen_.assign(static_cast<std::size_t>(world_.size()), 0);
    bootstrap_cycle_.assign(static_cast<std::size_t>(world_.size()), -1);
    seen_gen_.assign(static_cast<std::size_t>(world_.size()), 0);
    dist_ = opts_.initial_dist == Distribution::Kind::Block
                ? Distribution::even_block(0, global_rows_, world_.size())
                : Distribution::cyclic(0, global_rows_, world_.size(),
                                       opts_.cyclic_block_size);
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

namespace {
std::string counts_string(const std::vector<int>& counts) {
    std::string s;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i) s += '/';
        s += std::to_string(counts[i]);
    }
    return s;
}

using support::CounterId;
using support::GaugeId;
using support::HistogramId;
using support::InstantId;
using support::SpanId;
using support::targ;

/// Each adaptation kind's trace event and rank-0 counter, in Kind order.
struct AdaptationIds {
    InstantId event;
    CounterId counter;
};
constexpr AdaptationIds kAdaptationIds[] = {
#define DYNMPI_ADAPTATION(kind, event, counter, label) \
    {InstantId::event, CounterId::counter},
#include "support/trace_events.def"
};

/// Trace names of the modes, indexed by CycleRecord::mode.
constexpr const char* kModeNames[] = {"monitor", "grace", "post_grace"};
}  // namespace

void Runtime::record_event(AdaptationEvent::Kind kind, std::string detail) {
    AdaptationEvent e{kind, stats_.cycles, rank_.hrtime(), {}};
    const AdaptationIds& ids = kAdaptationIds[static_cast<std::size_t>(kind)];
    if (support::trace().enabled())
        support::trace().instant(e.time_s, rank_.id(), ids.event,
                                 {targ("cycle", e.cycle),
                                  targ("detail", detail)});
    if (support::metrics().enabled() && rank_.id() == 0)
        support::metrics().counter(ids.counter).add(1);
    e.detail = std::move(detail);
    stats_.events.push_back(std::move(e));
}

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
    Phase p;
    p.lo = lo;
    p.hi = hi;
    p.comm = comm;
    p.timer = IterationTimer(opts_.timing);
    phases_.push_back(std::move(p));
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

    comm_costs_ = opts_.calibrate ? calibrate_comm_costs(rank_, world_)
                                  : opts_.comm_costs;
    speeds_ = msg::allgather_scalar(rank_, world_, node_speed());
    memories_ = msg::allgather_scalar(
        rank_, world_, static_cast<double>(rank_.node().memory_bytes()));
    // The baseline is the load the *current distribution* was computed for.
    // The initial even-block split assumes dedicated nodes, so any load that
    // already exists at startup must register as a change on cycle one.
    baseline_loads_.assign(static_cast<std::size_t>(world_.size()), 0.0);

    // Allocate this node's initial rows (zero-filled; the app initializes).
    for (auto& ai : arrays_) {
        RowSet need = needed_rows(active_, dist_, rank_.id(), ai.accesses,
                                  global_rows_);
        ai.array->ensure_rows(need);
    }
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    committed_ = true;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

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

namespace {
/// start_iter/end_iter bound one run of iterations; a cyclic set has many.
const RowSet& one_run(const RowSet& it) {
    DYNMPI_REQUIRE(it.intervals().size() <= 1,
                   "start_iter/end_iter on a phase whose iterations are not "
                   "one contiguous range (cyclic layout): walk "
                   "my_iters(phase) instead");
    return it;
}
}  // namespace

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

namespace {
/// Bootstrap for a restarted rank, unique per (node, incarnation).
std::uint64_t bootstrap_tag(int node, int generation) {
    return msg::make_tag(
        msg::TagSpace::Runtime,
        hash_combine(0xB0075ULL,
                     hash_combine(static_cast<std::uint64_t>(node),
                                  static_cast<std::uint64_t>(generation))));
}
}  // namespace

void Runtime::leader_send_bootstraps() {
    auto& cluster = rank_.machine().cluster();
    for (int w : world_.members()) {
        auto wi = static_cast<std::size_t>(w);
        if (active_.contains(w) || cluster.node_crashed(w)) continue;
        int gen = cluster.node_generation(w);
        if (gen == 0 || bootstrapped_gen_[wi] == gen) continue;
        // A revived node is waiting in bootstrap_rejoin.  Hand it the state
        // a removed follower needs, telling it to pick up the status channel
        // from the NEXT cycle (this cycle's send-outs are already in
        // flight).  A leader elected after a crash re-sends — its tracking
        // is stale — and the duplicate is simply never matched.
        bootstrapped_gen_[wi] = gen;
        bootstrap_cycle_[wi] = stats_.cycles;
        const Bootstrap b{
            .next_cycle = static_cast<std::uint64_t>(stats_.cycles + 1),
            .redist_seq = mon_.redist_seq, .sendout_seq = sendout_seq_,
            .active = active_.members(), .baseline_loads = baseline_loads_,
            .speeds = speeds_, .memories = memories_,
            .quarantined = quarantined_, .comm_costs = comm_costs_,
            .group_seqs = rank_.export_group_seqs()};
        rank_.send_wire(w, bootstrap_tag(w, gen), encode(b));
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
        } catch (const msg::PeerFailure&) {
        }
    }
    Bootstrap b = decode_bootstrap(blob, world_.size());
    stats_.cycles = static_cast<int>(b.next_cycle);
    mon_.redist_seq = b.redist_seq;
    sendout_seq_ = b.sendout_seq;
    active_ = msg::Group(std::move(b.active));
    DYNMPI_CHECK(!active_.contains(rank_.id()),
                 "bootstrap lists the restarted rank as active");
    baseline_loads_ = std::move(b.baseline_loads);
    speeds_ = std::move(b.speeds);
    memories_ = std::move(b.memories);
    quarantined_ = std::move(b.quarantined);
    comm_costs_ = b.comm_costs;
    // The leader's collective counters, so this rank's next collective on
    // any shared group lines up with the survivors'.
    rank_.import_group_seqs(b.group_seqs);
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    committed_ = true;
}

void Runtime::record_rejoins(const msg::Group& now) {
    auto& cluster = rank_.machine().cluster();
    for (int w : now.members()) {
        auto wi = static_cast<std::size_t>(w);
        // seen_gen_ starts at 0, so any advance means a revived node.
        int gen = cluster.node_generation(w);
        if (gen <= seen_gen_[wi]) continue;
        seen_gen_[wi] = gen;
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

bool Runtime::report_stale(int w) const {
    const sim::PsDaemon& d = rank_.machine().cluster().daemon(w);
    if (d.last_sample_time() < 0) return false; // no completed window yet
    double age = rank_.hrtime() - sim::to_seconds(d.last_sample_time());
    double window = std::max(opts_.report_staleness_s,
                             2.0 * sim::to_seconds(d.period()));
    return age > window;
}

void Runtime::leader_scan_reports() {
    quarantine_due_ = false;
    auto& cluster = rank_.machine().cluster();
    for (int w : world_.members()) {
        auto wi = static_cast<std::size_t>(w);
        if (cluster.node_crashed(w)) continue;
        if (report_stale(w)) {
            clean_streak_[wi] = 0;
            ++bad_streak_[wi];
            ++stats_.stale_fallbacks;
            if (support::trace().enabled()) {
                double age = rank_.hrtime() -
                             sim::to_seconds(
                                 cluster.daemon(w).last_sample_time());
                support::trace().instant(rank_.hrtime(), rank_.id(),
                                         InstantId::RuntimeStaleReport,
                                         {targ("cycle", stats_.cycles),
                                          targ("node", w),
                                          targ("age_s", age)});
            }
        } else {
            bad_streak_[wi] = 0;
            ++clean_streak_[wi];
        }
        if (quarantine_flips(wi)) quarantine_due_ = true;
    }
}

bool Runtime::quarantine_flips(std::size_t wi) const {
    return quarantined_[wi] != 0
               ? clean_streak_[wi] >= opts_.readmit_clean_cycles
               : bad_streak_[wi] >= opts_.quarantine_bad_reports;
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
    for (auto& ai : arrays_) {
        RowSet need = needed_rows(active_, dist_, rank_.id(), ai.accesses,
                                  global_rows_);
        ai.array->ensure_rows(need);
    }
    if (replicas_)
        replicas_->ring_changed(owned_iters(), stats_.cycles);
    else
        recovered_rows_ = recovered_rows_.unite(adopted);
    stats_.crash_repairs += static_cast<int>(dead.size());
    for (int d : dead)
        record_event(AdaptationEvent::Kind::NodeCrash,
                     "node " + std::to_string(d) + " removed");
    if (support::trace().enabled())
        for (int d : dead)
            support::trace().instant(rank_.hrtime(), rank_.id(),
                                     InstantId::RuntimeCrashRepair,
                                     {targ("cycle", stats_.cycles),
                                      targ("node", d),
                                      targ("rows_adopted", adopted.count())});
    return true;
}

void Runtime::run_monitoring(CycleRecord& rec, double wall) {
    // Snapshot the mode-progress state so a retried attempt replays the
    // cycle's protocol from the same starting point.
    const MonitorState snap = mon_;
    bool repaired = false;
    for (int attempt = 0;; ++attempt) {
        DYNMPI_CHECK(attempt <= 2 * world_.size() + 4,
                     "failure recovery did not converge");
        rank_.sync_revocations();
        repaired = repair_active_set() || repaired;
        if (repaired && mon_.mode == Mode::Grace && participating()) {
            // A crash repair changed row ownership mid-grace: measurements
            // taken against the old distribution no longer align with
            // my_iters, so restart the grace window for the new ownership.
            // (Re-applied after every retry's snapshot restore so all
            // attempts — and all surviving ranks — see the same state.)
            restart_grace_window();
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
        } catch (const msg::PeerFailure&) {
            // A peer died mid-round: revoke so every rank stranded in the
            // abandoned round wakes up, then retry on the new epoch.
            rank_.revoke_control();
        } catch (const msg::EpochRevoked&) {
            // Someone else started a new epoch; just retry on it.
        }
        mon_ = snap;
    }
}

std::vector<int> Runtime::row_caps_for(const std::vector<int>& members) const {
    std::vector<int> caps(members.size(), 0);
    if (!opts_.memory_aware) return caps;
    std::size_t per_row = 0;
    for (const auto& ai : arrays_) per_row += ai.array->nominal_row_bytes();
    if (per_row == 0) return caps;
    for (std::size_t j = 0; j < members.size(); ++j) {
        double mem = memories_[static_cast<std::size_t>(members[j])];
        if (mem > 0)
            caps[j] = static_cast<int>(mem / static_cast<double>(per_row));
    }
    return caps;
}

double Runtime::paging_factor() const {
    double mem = memories_.empty()
                     ? 0.0
                     : memories_[static_cast<std::size_t>(rank_.id())];
    if (mem <= 0) return 1.0;
    std::size_t used = 0;
    for (const auto& ai : arrays_) used += ai.array->local_bytes();
    return static_cast<double>(used) > mem ? opts_.paging_slowdown : 1.0;
}

double Runtime::comm_cpu_for(int active_nodes) const {
    double total = 0.0;
    for (const auto& p : phases_)
        total += comm_cpu_per_cycle(comm_costs_, p.comm, active_nodes);
    return total;
}

double Runtime::comm_wire_for(int active_nodes) const {
    double total = 0.0;
    for (const auto& p : phases_)
        total += comm_wire_per_cycle(comm_costs_, p.comm, active_nodes);
    return total;
}

// ---------------------------------------------------------------------------
// Messaging helpers
// ---------------------------------------------------------------------------

void Runtime::send_rel(int rel_dst, int tag, const void* data,
                       std::size_t bytes) {
    rank_.send(active_.member(rel_dst), tag, data, bytes);
}

std::size_t Runtime::recv_rel(int rel_src, int tag, void* data,
                              std::size_t capacity) {
    return rank_.recv(active_.member(rel_src), tag, data, capacity);
}

template <typename Op>
double Runtime::reduce_sendout(double value, Op op) {
    rank_.sync_revocations();
    const std::uint64_t tag = msg::make_tag(
        msg::TagSpace::Runtime, hash_combine(0x5e4d007ULL, sendout_seq_++));
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

double Runtime::allreduce_active(double value, msg::OpSum op) {
    return reduce_sendout(value, op);
}

double Runtime::allreduce_active(double value, msg::OpMax op) {
    return reduce_sendout(value, op);
}

std::vector<double> Runtime::read_world_loads(const msg::Group& pg) {
    // Relative rank 0 is the single reader of the daemon mesh (a consistent
    // snapshot); the view — loads plus quarantine flags — is broadcast
    // within the protocol group.
    std::vector<double> blob;
    if (rel_rank() == 0) {
        auto& cluster = rank_.machine().cluster();
        blob.reserve(3 * static_cast<std::size_t>(world_.size()));
        for (int w : world_.members()) {
            auto wi = static_cast<std::size_t>(w);
            // Crashed or stale-reporting nodes fall back to the last load
            // the current distribution was computed for.
            if (cluster.node_crashed(w) || report_stale(w))
                blob.push_back(baseline_loads_[wi]);
            else
                blob.push_back(cluster.daemon(w).avg_competing());
        }
        // Apply quarantine transitions at the decision point, so every rank
        // that acts on this snapshot also learns the resulting flags.
        for (int w : world_.members()) {
            auto wi = static_cast<std::size_t>(w);
            if (!cluster.node_crashed(w) && quarantine_flips(wi)) {
                const bool q = quarantined_[wi] == 0; // the flag's new value
                quarantined_[wi] = q ? 1 : 0;
                ++(q ? stats_.quarantines : stats_.quarantine_readmits);
                record_event(q ? AdaptationEvent::Kind::Quarantine
                               : AdaptationEvent::Kind::Readmit,
                             "node " + std::to_string(w) + " after " +
                                 std::to_string(q ? bad_streak_[wi]
                                                  : clean_streak_[wi]) +
                                 (q ? " bad reports" : " clean reports"));
            }
            blob.push_back(quarantined_[wi] != 0 ? 1.0 : 0.0);
        }
        // Joinability: who may be (re)admitted to the active set.  Crashed
        // nodes are out; restarted nodes (generation > 0) only become
        // joinable once this leader has bootstrapped their new incarnation
        // and at least one cycle has passed since (the reborn skips its
        // bootstrap cycle).  A node already in the active set is joinable by
        // definition — a freshly promoted leader has no bootstrap record for
        // nodes readmitted under its predecessor.
        for (int w : world_.members()) {
            auto wi = static_cast<std::size_t>(w);
            bool ok = !cluster.node_crashed(w) &&
                      (active_.contains(w) ||
                       cluster.node_generation(w) == 0 ||
                       (bootstrapped_gen_[wi] == cluster.node_generation(w) &&
                        stats_.cycles > bootstrap_cycle_[wi]));
            blob.push_back(ok ? 1.0 : 0.0);
        }
    }
    msg::bcast(rank_, pg, 0, blob);
    const auto W = static_cast<std::size_t>(world_.size());
    DYNMPI_CHECK(blob.size() == 3 * W, "bad load snapshot");
    for (std::size_t w = 0; w < W; ++w) {
        quarantined_[w] = blob[W + w] != 0.0 ? 1 : 0;
        joinable_[w] = blob[2 * W + w] != 0.0 ? 1 : 0;
    }
    blob.resize(W);
    return blob;
}

// ---------------------------------------------------------------------------
// Per-cycle driver
// ---------------------------------------------------------------------------

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

    // Thrashing: every row costs paging_slowdown x its CPU time.  The
    // grace-period measurements see the inflation, so even without
    // memory-aware caps the balancer is pushed away from this node.
    const double paging = paging_factor();
    std::vector<double> inflated;
    if (paging > 1.0) {
        inflated = row_costs;
        for (double& c : inflated) c *= paging;
    }
    const std::vector<double>& costs = paging > 1.0 ? inflated : row_costs;
    if (mon_.mode == Mode::Grace && !p.measured_this_cycle) {
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

void Runtime::restart_grace_window() {
    mon_.grace_count = 0;
    for (std::size_t ph = 0; ph < phases_.size(); ++ph)
        phases_[ph].timer.start(my_iters(static_cast<int>(ph)).count());
}

void Runtime::enter_grace() {
    mon_.mode = Mode::Grace;
    restart_grace_window();
    if (support::trace().enabled())
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 InstantId::RuntimeGraceEnter,
                                 {targ("cycle", stats_.cycles),
                                  targ("grace_cycles", opts_.grace_cycles)});
}

void Runtime::enter_post_grace() {
    mon_.mode = Mode::PostGrace;
    mon_.post_count = 0;
    mon_.post_cycle_max.clear();
    if (support::trace().enabled())
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 InstantId::RuntimePostGraceEnter,
                                 {targ("cycle", stats_.cycles),
                                  targ("post_grace_cycles",
                                       opts_.post_grace_cycles)});
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
        execute_redistribution(rank_, ctx, arrays_, mon_.redist_seq++);
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
                           mon_.redist_seq, stats_);
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

BalanceInput Runtime::balance_input(const std::vector<int>& members,
                                   const std::vector<double>& loads) const {
    BalanceInput in;
    in.row_costs = row_costs_;
    for (int w : members)
        in.nodes.push_back(NodePower{speeds_[static_cast<std::size_t>(w)],
                                     loads[static_cast<std::size_t>(w)]});
    in.comm_cpu_per_node = comm_cpu_for(static_cast<int>(members.size()));
    return in;
}

std::vector<double> Runtime::shares_for(const BalanceInput& in) const {
    return opts_.scheme == BalanceScheme::RelativePower
               ? naive_shares(in.nodes)
               : successive_shares(in);
}

Runtime::GraceDecision Runtime::compute_grace_decision(
    const std::vector<double>& world_loads, const msg::Group& pg) {
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

    // Candidate set: currently active nodes plus any unloaded node that can
    // be added back (paper: nodes return when conditions change).  The
    // leader-computed joinable flags cover crashes and restarted-but-not-
    // yet-bootstrapped incarnations; quarantined nodes sit out until
    // readmitted.
    std::vector<int> candidates;
    for (int w : world_.members()) {
        auto wi = static_cast<std::size_t>(w);
        if (joinable_[wi] == 0 || quarantined_[wi] != 0) continue;
        if (active_.contains(w) ||
            world_loads[wi] <= opts_.load_change_eps)
            candidates.push_back(w);
    }
    // Degenerate case: every candidate is quarantined.  Keep the current
    // survivors rather than dissolving the computation.
    if (candidates.empty()) candidates = active_.members();
    msg::Group new_active(candidates);

    std::vector<int> counts = blocks_from_shares(
        row_costs_, shares_for(balance_input(candidates, world_loads)),
        /*min_rows=*/1);
    counts = apply_row_caps(std::move(counts), row_caps_for(candidates));

    // Skip the redistribution if nothing materially changes — the threshold
    // scales with the average block so it means the same thing at every
    // machine size.
    bool material = new_active != active_;
    if (!material) {
        double threshold = opts_.min_count_change *
                           static_cast<double>(global_rows_) /
                           static_cast<double>(new_active.size());
        std::vector<int> old_counts = dist_.counts();
        for (std::size_t j = 0; j < counts.size(); ++j)
            if (std::abs(counts[j] - old_counts[j]) > threshold)
                material = true;
    }

    if (support::trace().enabled())
        support::trace().instant(
            rank_.hrtime(), rank_.id(), InstantId::BalancerDecision,
            {targ("cycle", stats_.cycles),
             targ("scheme", opts_.scheme == BalanceScheme::RelativePower
                                ? "relative_power"
                                : "successive"),
             targ("candidates", new_active.size()),
             targ("material", material)});

    return GraceDecision{material, new_active, std::move(counts),
                         world_loads};
}

void Runtime::finish_post_grace(const std::vector<double>& world_loads) {
    const std::vector<double>& maxes = mon_.post_cycle_max;
    double measured = std::accumulate(maxes.begin(), maxes.end(), 0.0) /
                      static_cast<double>(maxes.size());

    bool any_loaded = false;
    for (int w : active_.members())
        if (world_loads[static_cast<std::size_t>(w)] > opts_.load_change_eps)
            any_loaded = true;
    const bool dropped = opts_.enable_removal && any_loaded &&
                         active_.size() > 1 &&
                         try_drop(world_loads, measured);
    mon_.mode = Mode::Monitor;
    if (support::trace().enabled())
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 InstantId::RuntimePostGraceExit,
                                 {targ("cycle", stats_.cycles),
                                  targ("measured_s", measured),
                                  targ("dropped", dropped)});
}

bool Runtime::try_drop(const std::vector<double>& world_loads,
                       double measured) {
    BalanceInput in = balance_input(active_.members(), world_loads);
    int unloaded = 0;
    for (const auto& n : in.nodes)
        if (!n.loaded()) ++unloaded;
    // With nothing unloaded to fall back on (or nothing loaded to shed),
    // there is no removal question to evaluate.
    if (unloaded == 0 || unloaded == static_cast<int>(in.nodes.size()))
        return false;

    RemovalDecision d = evaluate_removal(in, measured, comm_cpu_for(unloaded),
                                         comm_wire_for(unloaded));
    if (opts_.force_drop_loaded && !d.unloaded_members.empty() &&
        d.unloaded_members.size() < in.nodes.size())
        d.drop = true;
    // The §4.4 predictor's verdict, before any drop is executed.
    if (support::trace().enabled())
        support::trace().instant(
            rank_.hrtime(), rank_.id(), InstantId::RuntimeRemovalEval,
            {targ("cycle", stats_.cycles),
             targ("predicted_unloaded_s", d.predicted_unloaded_s),
             targ("measured_loaded_s", d.measured_loaded_s),
             targ("unloaded_nodes",
                  static_cast<int>(d.unloaded_members.size())),
             targ("drop", d.drop)});
    if (!d.drop) return false;

    // Rebalance over the unloaded nodes alone.  A physical drop removes the
    // loaded ones from the active set; a logical drop keeps them (static
    // relative ranks) with a minimum assignment.
    const bool physical = opts_.drop_mode == DropMode::Physical;
    std::vector<int> keep;
    BalanceInput sub;
    sub.row_costs = row_costs_;
    for (int j : d.unloaded_members) {
        keep.push_back(active_.member(j));
        sub.nodes.push_back(in.nodes[static_cast<std::size_t>(j)]);
    }
    const msg::Group target = physical ? msg::Group(keep) : active_;
    sub.comm_cpu_per_node = comm_cpu_for(target.size());
    std::vector<double> shares = shares_for(sub);
    if (!physical) {
        std::vector<double> spread(in.nodes.size(), 0.0);
        for (std::size_t k = 0; k < shares.size(); ++k)
            spread[static_cast<std::size_t>(d.unloaded_members[k])] =
                shares[k];
        shares = std::move(spread);
    }
    auto counts = blocks_from_shares(row_costs_, shares,
                                     physical ? 1 : opts_.logical_min_rows);
    counts =
        apply_row_caps(std::move(counts), row_caps_for(target.members()));
    apply_distribution(target, Distribution::block(0, global_rows_, counts));
    if (physical) {
        ++stats_.physical_drops;
        record_event(AdaptationEvent::Kind::Dropped,
                     "active now " + std::to_string(active_.size()) +
                         " nodes");
    } else {
        ++stats_.logical_drops;
        record_event(AdaptationEvent::Kind::LogicalDrop,
                     "blocks " + counts_string(counts));
    }
    // Note: baseline_loads_ deliberately stays at the loads the current
    // distribution was computed for — if the load profile shifted during
    // the post-grace window, the very next Monitor cycle re-triggers
    // adaptation.
    return true;
}

namespace {
std::uint64_t status_tag(int cycle) {
    return msg::make_tag(msg::TagSpace::Runtime,
                         hash_combine(0x57A705ULL,
                                      static_cast<std::uint64_t>(cycle)));
}
}  // namespace

void Runtime::send_statuses(const msg::Group& active_before,
                            const GraceDecision* decision) {
    if (active_before.index_of(rank_.id()) != 0) return;
    // A retried recovery attempt must not re-send: the first copy was
    // already delivered (sends never block), and followers recv exactly one
    // status per cycle.
    if (statuses_sent_this_cycle_) return;
    statuses_sent_this_cycle_ = true;
    const bool material = decision && decision->material;
    // Steady heartbeat: the active set after this cycle.
    Status steady;
    steady.active = (material ? decision->new_active : active_).members();
    // Re-add instruction: full state, so a returning node can join the
    // redistribution and the subsequent decisions.
    Status readd;
    if (material)
        readd = Status{.readd = true, .active = decision->new_active.members(),
                       .counts = decision->counts,
                       .old_active = active_before.members(),
                       .old_counts = dist_.counts(),
                       .redist_seq = mon_.redist_seq, .row_costs = row_costs_,
                       .loads = decision->loads, .quarantined = quarantined_};
    for (int w : world_.members()) {
        if (active_before.contains(w)) continue;
        if (rank_.machine().cluster().node_crashed(w)) continue;
        const bool back = material && decision->new_active.contains(w);
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
    mon_.redist_seq = st.redist_seq;
    row_costs_ = std::move(st.row_costs);
    baseline_loads_ = std::move(st.loads);
    quarantined_ = std::move(st.quarantined);
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
    enter_post_grace();
}

void Runtime::active_cycle_monitor(CycleRecord& rec, double wall) {
    const msg::Group active_before = active_;
    // Protocol rounds run on the epoch-salted group: after a crash or an
    // explicit revocation, retried rounds use fresh tags that can never
    // match packets from an abandoned round.
    const msg::Group pg = protocol_group();
    const int me = rank_.id();

    // Load-change detection: each active node contributes its own dmpi_ps
    // delta; relative rank 0 folds in the removed nodes' daemons so a
    // cleared load can trigger a re-add.
    double delta =
        std::fabs(my_load() - baseline_loads_[static_cast<std::size_t>(me)]);
    bool refresh_go = false;
    if (rel_rank() == 0) {
        leader_scan_reports();
        leader_send_bootstraps();
        auto& cluster = rank_.machine().cluster();
        for (int w : world_.members()) {
            auto wi = static_cast<std::size_t>(w);
            if (active_.contains(w)) continue;
            if (cluster.node_crashed(w)) continue;
            delta = std::max(
                delta,
                std::fabs(cluster.daemon(w).avg_competing() -
                          baseline_loads_[wi]));
            // A bootstrapped rejoiner waiting outside the active set forces
            // an adaptation round even on a quiet cluster, like a
            // quarantine transition: the candidate set changed.
            int gen = cluster.node_generation(w);
            if (gen > 0 && bootstrapped_gen_[wi] == gen &&
                stats_.cycles > bootstrap_cycle_[wi])
                delta = std::max(delta, opts_.load_change_eps + 1.0);
        }
        // A pending quarantine or readmit must force an adaptation round
        // even when no load moved: it changes the candidate set.
        if (quarantine_due_)
            delta = std::max(delta, opts_.load_change_eps + 1.0);
        // Replica-refresh go/no-go is the leader's call (time-gated).
        refresh_go = replicas_ && replicas_->refresh_due(
                                      stats_.cycles, opts_.replica_refresh_s);
    }
    std::vector<double> agg{delta, wall, refresh_go ? 1.0 : 0.0};
    agg = msg::allreduce(rank_, pg, std::move(agg), msg::OpMax{});
    rec.max_wall_s = agg[1];
    bool load_changed = agg[0] > opts_.load_change_eps;
    if (replicas_ && agg[2] > 0.0)
        replicas_->refresh(active_, owned_iters(), /*wholesale=*/false,
                           static_cast<std::uint64_t>(stats_.cycles), stats_);

    bool may_adapt = opts_.max_redistributions < 0 ||
                     stats_.redistributions < opts_.max_redistributions;

    switch (mon_.mode) {
    case Mode::Monitor:
        if (load_changed && may_adapt) {
            record_event(AdaptationEvent::Kind::LoadChange,
                         "max dmpi_ps delta " + fmt(agg[0], 2));
            enter_grace();
        }
        break;
    case Mode::Grace:
        ++mon_.grace_count;
        if (mon_.grace_count >= opts_.grace_cycles) {
            std::vector<double> loads = read_world_loads(pg);
            const GraceDecision decision = compute_grace_decision(loads, pg);
            if (decision.new_active.size() > active_.size())
                stats_.readds += decision.new_active.size() - active_.size();
            // Returning nodes must learn about the redistribution before it
            // starts, so statuses go out first.
            send_statuses(active_before, &decision);
            if (decision.material) {
                apply_distribution(
                    decision.new_active,
                    Distribution::block(0, global_rows_, decision.counts));
                record_event(AdaptationEvent::Kind::Redistributed,
                             "blocks " + counts_string(decision.counts));
                record_rejoins(active_);
                enter_post_grace();
            } else {
                record_event(AdaptationEvent::Kind::Skipped,
                             "change below threshold");
                mon_.mode = Mode::Monitor;
            }
            baseline_loads_ = loads;
        }
        break;
    case Mode::PostGrace:
        mon_.post_cycle_max.push_back(agg[1]);
        ++mon_.post_count;
        if (mon_.post_count >= opts_.post_grace_cycles)
            finish_post_grace(read_world_loads(pg));
        break;
    }
    // Every other cycle's heartbeat (a no-op once sent above).
    send_statuses(active_before, nullptr);
}

void Runtime::end_cycle() {
    DYNMPI_REQUIRE(in_cycle_, "end_cycle without begin_cycle");
    in_cycle_ = false;
    double wall = rank_.hrtime() - cycle_start_;

    CycleRecord rec;
    rec.cycle = stats_.cycles;
    rec.start_s = cycle_start_;
    rec.wall_s = wall;
    rec.max_wall_s = wall;
    rec.mode = static_cast<int>(mon_.mode);

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
    if (support::metrics().enabled() && rank_.id() == 0) {
        support::metrics().counter(CounterId::RuntimeCycles).add(1);
        support::metrics().histogram(HistogramId::RuntimeCycleWallS)
            .record(rec.max_wall_s);
    }

    stats_.history.push_back(rec);
    ++stats_.cycles;
}

}  // namespace dynmpi
