#include "dynmpi/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>

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

const char* mode_name(int mode) {
    switch (mode) {
    case 0: return "monitor";
    case 1: return "grace";
    case 2: return "post_grace";
    }
    return "?";
}
}  // namespace

void Runtime::record_event(AdaptationEvent::Kind kind, std::string detail) {
    AdaptationEvent e;
    e.kind = kind;
    e.cycle = stats_.cycles;
    e.time_s = rank_.hrtime();
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

void Runtime::record_redist_observability(const RedistStats& ts, double t0,
                                          double t1, int active_before) {
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

ArrayInfo& Runtime::info(const std::string& name) {
    for (auto& a : arrays_)
        if (a.array->name() == name) return a;
    throw Error("unknown Dyn-MPI array: " + name);
}

DenseArray& Runtime::register_dense(const std::string& name, int row_elems,
                                    std::size_t elem_bytes) {
    DYNMPI_REQUIRE(!committed_, "registration after commit_setup");
    ArrayInfo ai;
    ai.array = std::make_unique<DenseArray>(name, global_rows_, row_elems,
                                            elem_bytes);
    arrays_.push_back(std::move(ai));
    return static_cast<DenseArray&>(*arrays_.back().array);
}

SparseMatrix& Runtime::register_sparse(const std::string& name,
                                       int global_cols) {
    DYNMPI_REQUIRE(!committed_, "registration after commit_setup");
    ArrayInfo ai;
    ai.array =
        std::make_unique<SparseMatrix>(name, global_rows_, global_cols);
    arrays_.push_back(std::move(ai));
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

    if (opts_.replicate) {
        std::vector<const DistArray*> like;
        for (const ArrayInfo& a : arrays_) like.push_back(a.array.get());
        replicas_ = std::make_unique<ReplicaStore>(like);
    }
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

/// Replica traffic: refresh deltas (salted by cycle) and wholesale rewrites
/// (salted by redistribution sequence) share the shape; `wholesale`
/// separates the two tag families.
std::uint64_t replica_tag(bool wholesale, std::uint64_t salt,
                          std::size_t array_idx) {
    std::uint64_t base = wholesale ? 0x4EBCA7AULL : 0x4EBF2E5ULL;
    return msg::make_tag(
        msg::TagSpace::Runtime,
        hash_combine(base, hash_combine(salt, array_idx)));
}

/// Restore of a dead node's rows, unique per (node, incarnation, array):
/// deliberately NOT epoch-salted, so an adopter's retried receive still
/// matches the blob the buddy already shipped in an abandoned round.
std::uint64_t restore_tag(int dead, int generation, std::size_t array_idx) {
    return msg::make_tag(
        msg::TagSpace::Runtime,
        hash_combine(0x2E5702EULL,
                     hash_combine(static_cast<std::uint64_t>(dead),
                                  hash_combine(
                                      static_cast<std::uint64_t>(generation),
                                      array_idx))));
}

void put_f64(std::vector<std::byte>& out, double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    DistArray::put_u64(out, b);
}

double get_f64(const std::vector<std::byte>& in, std::size_t& pos) {
    std::uint64_t b = DistArray::get_u64(in, pos);
    double d;
    std::memcpy(&d, &b, sizeof d);
    return d;
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
        std::vector<std::byte> blob;
        DistArray::put_u64(blob,
                           static_cast<std::uint64_t>(stats_.cycles + 1));
        DistArray::put_u64(blob, redist_seq_);
        DistArray::put_u64(blob, sendout_seq_);
        DistArray::put_u64(blob, static_cast<std::uint64_t>(active_.size()));
        for (int m : active_.members())
            DistArray::put_u64(blob, static_cast<std::uint64_t>(m));
        for (int m : world_.members()) {
            auto mi = static_cast<std::size_t>(m);
            put_f64(blob, baseline_loads_[mi]);
            put_f64(blob, speeds_[mi]);
            put_f64(blob, memories_[mi]);
            DistArray::put_u64(blob, quarantined_[mi] != 0 ? 1 : 0);
        }
        put_f64(blob, comm_costs_.latency_s);
        put_f64(blob, comm_costs_.bandwidth_Bps);
        put_f64(blob, comm_costs_.cpu_per_msg_s);
        put_f64(blob, comm_costs_.cpu_per_byte_s);
        auto seqs = rank_.export_group_seqs();
        DistArray::put_u64(blob, seqs.size());
        for (const auto& [hash, seq] : seqs) {
            DistArray::put_u64(blob, hash);
            DistArray::put_u64(blob, seq);
        }
        rank_.send_wire(w, bootstrap_tag(w, gen), std::move(blob));
    }
}

void Runtime::bootstrap_rejoin() {
    reborn_ = true;
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
    std::size_t pos = 0;
    stats_.cycles = static_cast<int>(DistArray::get_u64(blob, pos));
    redist_seq_ = DistArray::get_u64(blob, pos);
    sendout_seq_ = DistArray::get_u64(blob, pos);
    int nactive = static_cast<int>(DistArray::get_u64(blob, pos));
    std::vector<int> members;
    for (int i = 0; i < nactive; ++i)
        members.push_back(static_cast<int>(DistArray::get_u64(blob, pos)));
    active_ = msg::Group(std::move(members));
    DYNMPI_CHECK(!active_.contains(rank_.id()),
                 "bootstrap lists the restarted rank as active");
    const auto W = static_cast<std::size_t>(world_.size());
    baseline_loads_.assign(W, 0.0);
    speeds_.assign(W, 1.0);
    memories_.assign(W, 0.0);
    for (std::size_t m = 0; m < W; ++m) {
        baseline_loads_[m] = get_f64(blob, pos);
        speeds_[m] = get_f64(blob, pos);
        memories_[m] = get_f64(blob, pos);
        quarantined_[m] = DistArray::get_u64(blob, pos) != 0 ? 1 : 0;
    }
    comm_costs_.latency_s = get_f64(blob, pos);
    comm_costs_.bandwidth_Bps = get_f64(blob, pos);
    comm_costs_.cpu_per_msg_s = get_f64(blob, pos);
    comm_costs_.cpu_per_byte_s = get_f64(blob, pos);
    // The leader's collective counters, so this rank's next collective on
    // any shared group lines up with the survivors'.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seqs(
        DistArray::get_u64(blob, pos));
    for (auto& [hash, seq] : seqs) {
        hash = DistArray::get_u64(blob, pos);
        seq = DistArray::get_u64(blob, pos);
    }
    rank_.import_group_seqs(seqs);
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    committed_ = true;
}

void Runtime::record_rejoins(const msg::Group& now) {
    auto& cluster = rank_.machine().cluster();
    for (int w : now.members()) {
        auto wi = static_cast<std::size_t>(w);
        int gen = cluster.node_generation(w);
        if (gen > seen_gen_[wi]) {
            seen_gen_[wi] = gen;
            if (gen > 0) {
                ++stats_.rejoins;
                record_event(AdaptationEvent::Kind::Rejoin,
                             "node " + std::to_string(w) +
                                 " readmitted after restart");
            }
        }
    }
}

// dynmpi-lint: repair-critical
RowSet Runtime::take_recovered_rows() {
    RowSet r = std::move(recovered_rows_);
    recovered_rows_ = RowSet{};
    return r;
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
        bool q = quarantined_[wi] != 0;
        if (!q && bad_streak_[wi] >= opts_.quarantine_bad_reports)
            quarantine_due_ = true;
        if (q && clean_streak_[wi] >= opts_.readmit_clean_cycles)
            quarantine_due_ = true;
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

    if (opts_.replicate) {
        // Queue one restore per dead member before the old ring is torn
        // down: buddy = its old-ring successor (holder of its replicas),
        // adopter = the left-merge owner of its block.  Every surviving
        // rank derives the identical list.
        const int n = active_.size();
        for (int j = 0; j < n; ++j) {
            int d = active_.member(j);
            if (!cluster.node_crashed(d)) continue;
            RowSet rows = dist_.iters_of(j);
            if (rows.empty()) continue;
            PendingRestore pr;
            pr.dead = d;
            pr.buddy = active_.member((j + 1) % n);
            pr.adopter = -1;
            for (int k = j - 1; k >= 0 && pr.adopter < 0; --k)
                if (!cluster.node_crashed(active_.member(k)))
                    pr.adopter = active_.member(k);
            if (pr.adopter < 0) pr.adopter = survivors.front();
            pr.gen = cluster.node_generation(d);
            pr.rows = std::move(rows);
            pending_restores_.push_back(std::move(pr));
        }
    }

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
    if (opts_.replicate) {
        // The ring changed under us: our successor may be new, so the next
        // refresh must re-ship everything we own, and any half-finished
        // refresh this cycle is abandoned (tags would no longer line up).
        for (auto& ai : arrays_) ai.array->mark_rows_dirty(owned_iters());
        replica_skip_cycle_ = true;
    } else {
        recovered_rows_ = recovered_rows_.unite(adopted);
    }
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

void Runtime::replica_refresh(bool wholesale, std::uint64_t salt) {
    const int n = active_.size();
    if (n < 2 || arrays_.empty()) return; // no buddy to shadow onto
    if (!active_.contains(rank_.id())) {
        // Just removed for load: the new ring refreshes among its own
        // members.  Stale replicas die here; readd rebuilds them wholesale.
        replicas_->clear();
        return;
    }
    const int rel = rel_rank();
    const int succ = active_.member((rel + 1) % n);
    const int pred = active_.member((rel - 1 + n) % n);
    // Replica payload is application data: full CPU + wire cost even when
    // the refresh rides the (control-plane) monitoring cycle.
    msg::Rank::ControlScope data_plane(rank_, /*enable=*/false);
    // Resume counters make retried recovery attempts replay-safe: completed
    // sends are never duplicated and completed receives never re-posted.
    const std::uint64_t key =
        hash_combine(wholesale ? 0x4EBCA7AULL : 0x4EBF2E5ULL, salt);
    if (replica_xfer_key_ != key) {
        replica_xfer_key_ = key;
        replica_arrays_sent_ = 0;
        replica_arrays_recvd_ = 0;
    }
    const RowSet& owned = owned_iters();
    double t0 = rank_.hrtime();
    std::uint64_t bytes_out = 0;
    int rows_out = 0;
    while (replica_arrays_sent_ < static_cast<int>(arrays_.size())) {
        auto i = static_cast<std::size_t>(replica_arrays_sent_);
        DistArray& a = *arrays_[i].array;
        RowSet rows = wholesale ? owned : a.dirty_rows(owned);
        std::vector<std::byte> blob = a.pack_rows(rows);
        bytes_out += blob.size();
        rank_.send_wire(succ, replica_tag(wholesale, salt, i),
                        std::move(blob));
        a.clear_dirty(rows);
        rows_out += rows.count();
        ++replica_arrays_sent_;
    }
    stats_.replica_bytes += bytes_out;
    if (support::metrics().enabled() && bytes_out > 0)
        support::metrics().counter(CounterId::RuntimeReplicaBytes)
            .add(static_cast<std::int64_t>(bytes_out));
    while (replica_arrays_recvd_ < static_cast<int>(arrays_.size())) {
        auto i = static_cast<std::size_t>(replica_arrays_recvd_);
        auto blob = rank_.recv_wire(pred, replica_tag(wholesale, salt, i));
        RowSet stored = replicas_->store_blob(i, blob);
        if (wholesale) replicas_->retain_only(i, stored);
        ++replica_arrays_recvd_;
    }
    ++refreshes_done_;
    if (support::trace().enabled())
        support::trace().span(t0, rank_.hrtime(), rank_.id(),
                              SpanId::RuntimeReplicaRefresh,
                              {targ("cycle", stats_.cycles),
                               targ("wholesale", wholesale),
                               targ("rows", rows_out),
                               targ("bytes",
                                    static_cast<std::int64_t>(bytes_out))});
}

void Runtime::perform_pending_restores() {
    if (pending_restores_.empty()) return;
    auto& cluster = rank_.machine().cluster();
    const int me = rank_.id();
    msg::Rank::ControlScope data_plane(rank_, /*enable=*/false);
    auto it = pending_restores_.begin();
    while (it != pending_restores_.end()) {
        PendingRestore& pr = *it;
        const bool is_buddy = pr.buddy == me;
        const bool is_adopter = pr.adopter == me;
        if (!is_buddy && !is_adopter) {
            it = pending_restores_.erase(it);
            continue;
        }
        const bool buddy_alive = !cluster.node_crashed(pr.buddy);
        if (is_buddy && !is_adopter && buddy_alive) {
            // Ship my copies of the dead node's rows to the adopter, one
            // blob per array.  Tags are unique per (node, incarnation), so
            // the adopter's retried receives match these exact packets.
            while (pr.arrays_done < static_cast<int>(arrays_.size())) {
                auto i = static_cast<std::size_t>(pr.arrays_done);
                rank_.send_wire(pr.adopter, restore_tag(pr.dead, pr.gen, i),
                                replicas_->extract(i, pr.rows));
                ++pr.arrays_done;
            }
        } else if (is_adopter) {
            RowSet restored_all = pr.rows;
            while (pr.arrays_done < static_cast<int>(arrays_.size())) {
                auto i = static_cast<std::size_t>(pr.arrays_done);
                if (!buddy_alive && !is_buddy) {
                    // Double crash inside one refresh interval: the copies
                    // died with the buddy.  Every remaining row is lost.
                    pr.missing = pr.rows;
                    break;
                }
                std::vector<std::byte> blob =
                    is_buddy ? replicas_->extract(i, pr.rows)
                             : rank_.recv_wire(pr.buddy,
                                               restore_tag(pr.dead, pr.gen,
                                                           i));
                RowSet got = arrays_[i].array->unpack_rows(blob);
                pr.missing = pr.missing.unite(pr.rows.subtract(got));
                ++pr.arrays_done;
            }
            restored_all = pr.rows.subtract(pr.missing);
            // Restored rows are fresh content the NEW owner's buddy has
            // never seen — they must ride the next refresh.
            for (auto& ai : arrays_) ai.array->mark_rows_dirty(pr.rows);
            recovered_rows_ = recovered_rows_.unite(pr.missing);
            stats_.restored_rows += restored_all.count();
            RestoreRecord rr;
            rr.node = pr.dead;
            rr.buddy = pr.buddy;
            rr.buddy_alive = buddy_alive || is_buddy;
            rr.refreshed = refreshes_done_ > 0;
            rr.restored = restored_all.count();
            rr.lost = pr.missing.count();
            stats_.restores.push_back(rr);
            if (support::metrics().enabled() && rr.restored > 0)
                support::metrics().counter(CounterId::RuntimeRestoredRows)
                    .add(rr.restored);
            if (support::trace().enabled())
                support::trace().instant(
                    rank_.hrtime(), rank_.id(),
                    InstantId::RuntimeReplicaRestore,
                    {targ("cycle", stats_.cycles), targ("node", pr.dead),
                     targ("buddy", pr.buddy),
                     targ("restored", rr.restored), targ("lost", rr.lost)});
        }
        it = pending_restores_.erase(it);
    }
}

void Runtime::run_monitoring(CycleRecord& rec, double wall) {
    // Snapshot the mode-progress state so a retried attempt replays the
    // cycle's protocol from the same starting point.
    const auto snap_mode = mode_;
    const auto snap_grace = grace_count_;
    const auto snap_post = post_count_;
    const auto snap_post_max = post_cycle_max_;
    const auto snap_redist = redist_seq_;
    bool repaired = false;
    for (int attempt = 0;; ++attempt) {
        DYNMPI_CHECK(attempt <= 2 * world_.size() + 4,
                     "failure recovery did not converge");
        rank_.sync_revocations();
        repaired = repair_active_set() || repaired;
        if (repaired && mode_ == Mode::Grace && participating()) {
            // A crash repair changed row ownership mid-grace: measurements
            // taken against the old distribution no longer align with
            // my_iters, so restart the grace window for the new ownership.
            // (Re-applied after every retry's snapshot restore so all
            // attempts — and all surviving ranks — see the same state.)
            grace_count_ = 0;
            for (std::size_t ph = 0; ph < phases_.size(); ++ph)
                phases_[ph].timer.start(
                    my_iters(static_cast<int>(ph)).count());
        }
        try {
            if (participating()) {
                perform_pending_restores();
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
        mode_ = snap_mode;
        grace_count_ = snap_grace;
        post_count_ = snap_post;
        post_cycle_max_ = snap_post_max;
        redist_seq_ = snap_redist;
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

namespace {
template <typename Op>
double allreduce_sendout(msg::Rank& rank, const msg::Group& world,
                         const msg::Group& active, double value, Op op,
                         std::uint64_t seq) {
    std::uint64_t tag = msg::make_tag(msg::TagSpace::Runtime,
                                      hash_combine(0x5e4d007ULL, seq));
    if (active.contains(rank.id())) {
        double r = msg::allreduce_scalar(rank, active, value, op);
        if (active.index_of(rank.id()) == 0) {
            for (int w : world.members())
                if (!active.contains(w))
                    rank.send_wire(w, tag, &r, sizeof r);
        }
        return r;
    }
    auto bytes = rank.recv_wire(active.member(0), tag);
    DYNMPI_CHECK(bytes.size() == sizeof(double), "bad send-out payload");
    double r;
    std::memcpy(&r, bytes.data(), sizeof r);
    return r;
}
}  // namespace

double Runtime::allreduce_active(double value, msg::OpSum op) {
    rank_.sync_revocations();
    return allreduce_sendout(rank_, world_, active_, value, op,
                             sendout_seq_++);
}

double Runtime::allreduce_active(double value, msg::OpMax op) {
    rank_.sync_revocations();
    return allreduce_sendout(rank_, world_, active_, value, op,
                             sendout_seq_++);
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
            if (cluster.node_crashed(w)) continue;
            if (quarantined_[wi] == 0 &&
                bad_streak_[wi] >= opts_.quarantine_bad_reports) {
                quarantined_[wi] = 1;
                ++stats_.quarantines;
                record_event(AdaptationEvent::Kind::Quarantine,
                             "node " + std::to_string(w) + " after " +
                                 std::to_string(bad_streak_[wi]) +
                                 " bad reports");
            } else if (quarantined_[wi] != 0 &&
                       clean_streak_[wi] >= opts_.readmit_clean_cycles) {
                quarantined_[wi] = 0;
                ++stats_.quarantine_readmits;
                record_event(AdaptationEvent::Kind::Readmit,
                             "node " + std::to_string(w) + " after " +
                                 std::to_string(clean_streak_[wi]) +
                                 " clean reports");
            }
        }
        for (int w : world_.members())
            blob.push_back(
                quarantined_[static_cast<std::size_t>(w)] != 0 ? 1.0 : 0.0);
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
    DYNMPI_CHECK(static_cast<int>(blob.size()) == 3 * world_.size(),
                 "bad load snapshot");
    for (int w = 0; w < world_.size(); ++w) {
        quarantined_[static_cast<std::size_t>(w)] =
            blob[static_cast<std::size_t>(world_.size() + w)] != 0.0 ? 1 : 0;
        joinable_[static_cast<std::size_t>(w)] =
            blob[static_cast<std::size_t>(2 * world_.size() + w)] != 0.0 ? 1
                                                                         : 0;
    }
    return std::vector<double>(blob.begin(), blob.begin() + world_.size());
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

    double paging = paging_factor();
    msg::RowTimings t;
    if (paging > 1.0) {
        // Thrashing: every row costs paging_slowdown x its CPU time.  The
        // grace-period measurements see the inflation, so even without
        // memory-aware caps the balancer is pushed away from this node.
        std::vector<double> inflated(row_costs);
        for (double& c : inflated) c *= paging;
        t = rank_.compute_rows(inflated);
    } else {
        t = rank_.compute_rows(row_costs);
    }
    if (mode_ == Mode::Grace && !p.measured_this_cycle) {
        p.timer.record_cycle(t.wall, t.cpu, my_load(), node_speed());
        p.measured_this_cycle = true;
    }

    // Loaded nodes arrive at the phase's synchronization point late by the
    // scheduler's timeslice residue (see CpuParams::straggle_s).
    double straggle = rank_.node().cpu().sync_straggle();
    if (straggle > 0.0) rank_.sleep(straggle);
}

void Runtime::enter_grace() {
    mode_ = Mode::Grace;
    grace_count_ = 0;
    for (std::size_t ph = 0; ph < phases_.size(); ++ph)
        phases_[ph].timer.start(my_iters(static_cast<int>(ph)).count());
    if (support::trace().enabled())
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 InstantId::RuntimeGraceEnter,
                                 {targ("cycle", stats_.cycles),
                                  targ("grace_cycles", opts_.grace_cycles)});
}

void Runtime::apply_distribution(const msg::Group& new_active,
                                 const Distribution& new_dist) {
    // Redistribution moves application data: full CPU + wire cost even when
    // invoked from the (control-plane) monitoring path.
    msg::Rank::ControlScope data_plane(rank_, /*enable=*/false);
    double t0 = rank_.hrtime();
    const int active_before = active_.size();
    RedistContext ctx{global_rows_, &active_, &dist_, &new_active, &new_dist};
    RedistStats ts = execute_redistribution(rank_, ctx, arrays_, redist_seq_++);
    stats_.transfer.messages += ts.messages;
    stats_.transfer.bytes += ts.bytes;
    stats_.transfer.rows_moved += ts.rows_moved;
    active_ = new_active;
    dist_ = new_dist;
    ++stats_.redistributions;
    // Ownership just moved wholesale, so the incremental deltas are void:
    // rewrite every buddy's replica set against the new ring (§4.1 whole-row
    // shipping, one hop further).
    if (opts_.replicate) replica_refresh(/*wholesale=*/true, redist_seq_);
    double t1 = rank_.hrtime();
    stats_.redist_wall_s += t1 - t0;
    record_redist_observability(ts, t0, t1, active_before);
}

Runtime::GraceDecision Runtime::compute_grace_decision(
    const std::vector<double>& world_loads, const msg::Group& pg) {
    // Assemble my per-row unloaded cost estimates across phases, aligned to
    // my owned rows in ascending order.
    std::vector<int> owned_rows_vec = owned_iters().to_vector();
    // row id → slot; written once, read via at() — never iterated.
    std::unordered_map<int, std::size_t> pos; // dynmpi-lint: ok(unordered-lookup)
    for (std::size_t i = 0; i < owned_rows_vec.size(); ++i)
        pos[owned_rows_vec[i]] = i;
    std::vector<double> mine(owned_rows_vec.size(), 0.0);
    for (std::size_t ph = 0; ph < phases_.size(); ++ph) {
        Phase& p = phases_[ph];
        const RowSet& iters = my_iters(static_cast<int>(ph));
        if (iters.empty() || p.timer.cycles_recorded() == 0) continue;
        std::vector<double> est = p.timer.estimates();
        std::vector<int> rows = iters.to_vector();
        DYNMPI_CHECK(est.size() == rows.size(), "estimate alignment");
        for (std::size_t i = 0; i < rows.size(); ++i)
            mine[pos.at(rows[i])] += est[i];
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

    BalanceInput in;
    in.row_costs = row_costs_;
    for (int w : candidates)
        in.nodes.push_back(NodePower{speeds_[static_cast<std::size_t>(w)],
                                     world_loads[static_cast<std::size_t>(w)]});
    in.comm_cpu_per_node = comm_cpu_for(new_active.size());

    std::vector<double> shares = opts_.scheme == BalanceScheme::RelativePower
                                     ? naive_shares(in.nodes)
                                     : successive_shares(in);
    std::vector<int> counts =
        blocks_from_shares(row_costs_, shares, /*min_rows=*/1);
    counts = apply_row_caps(std::move(counts), row_caps_for(candidates));
    Distribution new_dist = Distribution::block(0, global_rows_, counts);

    (void)new_dist;

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

    GraceDecision d;
    d.material = material;
    d.new_active = new_active;
    d.counts = std::move(counts);
    d.loads = world_loads;
    return d;
}

void Runtime::finish_post_grace(const std::vector<double>& world_loads) {
    double measured =
        std::accumulate(post_cycle_max_.begin(), post_cycle_max_.end(), 0.0) /
        static_cast<double>(post_cycle_max_.size());

    auto exit_post_grace = [&](bool dropped) {
        mode_ = Mode::Monitor;
        if (support::trace().enabled())
            support::trace().instant(rank_.hrtime(), rank_.id(),
                                     InstantId::RuntimePostGraceExit,
                                     {targ("cycle", stats_.cycles),
                                      targ("measured_s", measured),
                                      targ("dropped", dropped)});
    };

    bool any_loaded = false;
    for (int w : active_.members())
        if (world_loads[static_cast<std::size_t>(w)] > opts_.load_change_eps)
            any_loaded = true;

    if (opts_.enable_removal && any_loaded && active_.size() > 1) {
        BalanceInput in;
        in.row_costs = row_costs_;
        for (int w : active_.members())
            in.nodes.push_back(
                NodePower{speeds_[static_cast<std::size_t>(w)],
                          world_loads[static_cast<std::size_t>(w)]});
        in.comm_cpu_per_node = comm_cpu_for(active_.size());

        int unloaded = 0;
        for (const auto& n : in.nodes)
            if (!n.loaded()) ++unloaded;
        // With nothing unloaded to fall back on (or nothing loaded to shed),
        // there is no removal question to evaluate.
        if (unloaded == 0 || unloaded == static_cast<int>(in.nodes.size())) {
            exit_post_grace(false);
            return;
        }

        RemovalDecision d =
            evaluate_removal(in, measured, comm_cpu_for(unloaded),
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
        if (d.drop) {
            if (opts_.drop_mode == DropMode::Physical) {
                std::vector<int> keep;
                for (int j : d.unloaded_members)
                    keep.push_back(active_.member(j));
                msg::Group new_active(keep);
                BalanceInput sub;
                sub.row_costs = row_costs_;
                for (int j : d.unloaded_members)
                    sub.nodes.push_back(in.nodes[static_cast<std::size_t>(j)]);
                sub.comm_cpu_per_node = comm_cpu_for(new_active.size());
                auto shares = opts_.scheme == BalanceScheme::RelativePower
                                  ? naive_shares(sub.nodes)
                                  : successive_shares(sub);
                auto counts = blocks_from_shares(row_costs_, shares, 1);
                counts = apply_row_caps(std::move(counts),
                                        row_caps_for(new_active.members()));
                apply_distribution(
                    new_active, Distribution::block(0, global_rows_, counts));
                ++stats_.physical_drops;
                record_event(AdaptationEvent::Kind::Dropped,
                             "active now " +
                                 std::to_string(active_.size()) + " nodes");
            } else {
                // Logical drop: loaded nodes stay in the active set (static
                // relative ranks) but keep only a minimum assignment.
                std::vector<double> shares(in.nodes.size(), 0.0);
                BalanceInput sub;
                sub.row_costs = row_costs_;
                for (int j : d.unloaded_members)
                    sub.nodes.push_back(in.nodes[static_cast<std::size_t>(j)]);
                sub.comm_cpu_per_node = comm_cpu_for(active_.size());
                auto sub_shares = opts_.scheme == BalanceScheme::RelativePower
                                      ? naive_shares(sub.nodes)
                                      : successive_shares(sub);
                for (std::size_t k = 0; k < d.unloaded_members.size(); ++k)
                    shares[static_cast<std::size_t>(d.unloaded_members[k])] =
                        sub_shares[k];
                auto counts = blocks_from_shares(row_costs_, shares,
                                                 opts_.logical_min_rows);
                counts = apply_row_caps(std::move(counts),
                                        row_caps_for(active_.members()));
                apply_distribution(
                    active_, Distribution::block(0, global_rows_, counts));
                ++stats_.logical_drops;
                record_event(AdaptationEvent::Kind::LogicalDrop,
                             "blocks " + counts_string(counts));
            }
            // Note: baseline_loads_ deliberately stays at the loads the
            // current distribution was computed for — if the load profile
            // shifted during the post-grace window, the very next Monitor
            // cycle re-triggers adaptation.
            exit_post_grace(true);
            return;
        }
    }
    exit_post_grace(false);
}

namespace {
std::uint64_t status_tag(int cycle) {
    return msg::make_tag(msg::TagSpace::Runtime,
                         hash_combine(0x57A705ULL,
                                      static_cast<std::uint64_t>(cycle)));
}
constexpr double kStatusSteady = 0.0;
constexpr double kStatusReadd = 1.0;
}  // namespace

void Runtime::send_statuses(const msg::Group& active_before,
                            const GraceDecision* decision) {
    if (active_before.index_of(rank_.id()) != 0) return;
    // A retried recovery attempt must not re-send: the first copy was
    // already delivered (sends never block), and followers recv exactly one
    // status per cycle.
    if (statuses_sent_this_cycle_) return;
    statuses_sent_this_cycle_ = true;
    for (int w : world_.members()) {
        if (active_before.contains(w)) continue;
        if (rank_.machine().cluster().node_crashed(w)) continue;
        std::vector<double> msg;
        if (decision && decision->material && decision->new_active.contains(w)) {
            // Re-add instruction: full state so the returning node can join
            // the redistribution and the subsequent decisions.
            msg.push_back(kStatusReadd);
            msg.push_back(static_cast<double>(active_before.size()));
            for (int m : active_before.members())
                msg.push_back(static_cast<double>(m));
            for (int c : dist_.counts()) msg.push_back(static_cast<double>(c));
            msg.push_back(static_cast<double>(decision->new_active.size()));
            for (int m : decision->new_active.members())
                msg.push_back(static_cast<double>(m));
            for (int c : decision->counts)
                msg.push_back(static_cast<double>(c));
            msg.push_back(static_cast<double>(redist_seq_));
            for (double c : row_costs_) msg.push_back(c);
            for (double l : decision->loads) msg.push_back(l);
            for (int m : world_.members())
                msg.push_back(
                    quarantined_[static_cast<std::size_t>(m)] != 0 ? 1.0
                                                                   : 0.0);
        } else {
            msg.push_back(kStatusSteady);
            const msg::Group& now =
                decision && decision->material ? decision->new_active : active_;
            msg.push_back(static_cast<double>(now.size()));
            for (int m : now.members()) msg.push_back(static_cast<double>(m));
        }
        rank_.send_wire(w, status_tag(stats_.cycles), msg.data(),
                        msg.size() * sizeof(double));
    }
}

void Runtime::removed_cycle_follow() {
    auto bytes = rank_.recv_wire(active_.member(0), status_tag(stats_.cycles));
    DYNMPI_CHECK(bytes.size() % sizeof(double) == 0, "bad status payload");
    std::vector<double> v(bytes.size() / sizeof(double));
    std::memcpy(v.data(), bytes.data(), bytes.size());
    std::size_t pos = 0;
    auto next = [&] { return v.at(pos++); };
    auto next_int = [&] { return static_cast<int>(next()); };

    if (next() == kStatusSteady) {
        int n = next_int();
        std::vector<int> members;
        for (int i = 0; i < n; ++i) members.push_back(next_int());
        active_ = msg::Group(std::move(members));
        DYNMPI_CHECK(!active_.contains(rank_.id()),
                     "steady status while listed active");
        return;
    }

    // Re-add: reconstruct both endpoints of the redistribution and join it.
    int n_old = next_int();
    std::vector<int> old_members, old_counts;
    for (int i = 0; i < n_old; ++i) old_members.push_back(next_int());
    for (int i = 0; i < n_old; ++i) old_counts.push_back(next_int());
    int n_new = next_int();
    std::vector<int> new_members, new_counts;
    for (int i = 0; i < n_new; ++i) new_members.push_back(next_int());
    for (int i = 0; i < n_new; ++i) new_counts.push_back(next_int());
    redist_seq_ = static_cast<std::uint64_t>(next());
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    for (int i = 0; i < global_rows_; ++i)
        row_costs_[static_cast<std::size_t>(i)] = next();
    baseline_loads_.assign(static_cast<std::size_t>(world_.size()), 0.0);
    for (int i = 0; i < world_.size(); ++i)
        baseline_loads_[static_cast<std::size_t>(i)] = next();
    for (int i = 0; i < world_.size(); ++i)
        quarantined_[static_cast<std::size_t>(i)] = next() != 0.0 ? 1 : 0;

    msg::Group old_active(std::move(old_members));
    Distribution old_dist =
        Distribution::block(0, global_rows_, std::move(old_counts));
    msg::Group new_active(std::move(new_members));
    Distribution new_dist =
        Distribution::block(0, global_rows_, std::move(new_counts));

    msg::Rank::ControlScope data_plane(rank_, /*enable=*/false);
    double t0 = rank_.hrtime();
    RedistContext ctx{global_rows_, &old_active, &old_dist, &new_active,
                      &new_dist};
    RedistStats ts = execute_redistribution(rank_, ctx, arrays_, redist_seq_++);
    stats_.transfer.messages += ts.messages;
    stats_.transfer.bytes += ts.bytes;
    stats_.transfer.rows_moved += ts.rows_moved;
    const int active_before = old_active.size();
    active_ = new_active;
    dist_ = new_dist;
    ++stats_.redistributions;
    ++stats_.readds;
    if (opts_.replicate) replica_refresh(/*wholesale=*/true, redist_seq_);
    double t1 = rank_.hrtime();
    stats_.redist_wall_s += t1 - t0;
    record_redist_observability(ts, t0, t1, active_before);
    record_event(AdaptationEvent::Kind::Readded,
                 "rejoined as one of " + std::to_string(active_.size()) +
                     " nodes");
    record_rejoins(active_);
    mode_ = Mode::PostGrace;
    post_count_ = 0;
    post_cycle_max_.clear();
    if (support::trace().enabled())
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 InstantId::RuntimePostGraceEnter,
                                 {targ("cycle", stats_.cycles),
                                  targ("post_grace_cycles",
                                       opts_.post_grace_cycles)});
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
        // Replica-refresh go/no-go is the leader's call (time-gated), made
        // once per cycle so recovery retries replay the same decision.
        if (opts_.replicate && !refresh_decided_this_cycle_) {
            refresh_decided_this_cycle_ = true;
            double now = rank_.hrtime();
            bool due = opts_.replica_refresh_s <= 0.0 ||
                       last_refresh_s_ < 0.0 ||
                       now - last_refresh_s_ >= opts_.replica_refresh_s;
            refresh_go_cycle_ = due ? 1.0 : 0.0;
            if (due) last_refresh_s_ = now;
        }
    }
    std::vector<double> agg{delta, wall,
                            rel_rank() == 0 ? refresh_go_cycle_ : 0.0};
    agg = msg::allreduce(rank_, pg, std::move(agg), msg::OpMax{});
    rec.max_wall_s = agg[1];
    bool load_changed = agg[0] > opts_.load_change_eps;
    if (opts_.replicate && agg[2] > 0.0 && !replica_skip_cycle_)
        replica_refresh(/*wholesale=*/false,
                        static_cast<std::uint64_t>(stats_.cycles));

    int redist_before = stats_.redistributions;
    bool may_adapt = opts_.max_redistributions < 0 ||
                     stats_.redistributions < opts_.max_redistributions;
    GraceDecision decision;
    const GraceDecision* decision_ptr = nullptr;

    switch (mode_) {
    case Mode::Monitor:
        if (load_changed && may_adapt) {
            record_event(AdaptationEvent::Kind::LoadChange,
                         "max dmpi_ps delta " + fmt(agg[0], 2));
            enter_grace();
        }
        break;
    case Mode::Grace:
        ++grace_count_;
        if (grace_count_ >= opts_.grace_cycles) {
            std::vector<double> loads = read_world_loads(pg);
            decision = compute_grace_decision(loads, pg);
            decision_ptr = &decision;
            if (decision.new_active.size() > active_.size())
                stats_.readds += decision.new_active.size() - active_.size();
            // Returning nodes must learn about the redistribution before it
            // starts, so statuses go out first.
            send_statuses(active_before, decision_ptr);
            if (decision.material) {
                apply_distribution(
                    decision.new_active,
                    Distribution::block(0, global_rows_, decision.counts));
                record_event(AdaptationEvent::Kind::Redistributed,
                             "blocks " + counts_string(decision.counts));
                record_rejoins(active_);
                mode_ = Mode::PostGrace;
                post_count_ = 0;
                post_cycle_max_.clear();
                if (support::trace().enabled())
                    support::trace().instant(
                        rank_.hrtime(), rank_.id(),
                        InstantId::RuntimePostGraceEnter,
                        {targ("cycle", stats_.cycles),
                         targ("post_grace_cycles",
                              opts_.post_grace_cycles)});
            } else {
                record_event(AdaptationEvent::Kind::Skipped,
                             "change below threshold");
                mode_ = Mode::Monitor;
            }
            baseline_loads_ = loads;
        }
        break;
    case Mode::PostGrace:
        post_cycle_max_.push_back(agg[1]);
        ++post_count_;
        if (post_count_ >= opts_.post_grace_cycles)
            finish_post_grace(read_world_loads(pg));
        break;
    }
    if (!decision_ptr) send_statuses(active_before, nullptr);
    rec.redistributed = stats_.redistributions != redist_before;
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
    rec.mode = static_cast<int>(mode_);

    if (opts_.adapt) {
        // Everything below is daemon-band coordination, not app traffic.
        msg::Rank::ControlScope control(rank_);
        int redist_before = stats_.redistributions;
        statuses_sent_this_cycle_ = false;
        refresh_decided_this_cycle_ = false;
        refresh_go_cycle_ = 0.0;
        replica_skip_cycle_ = false;
        run_monitoring(rec, wall);
        rec.redistributed = stats_.redistributions != redist_before;
    }

    // Observability (guarded: this is the per-cycle hot path).
    if (support::trace().enabled())
        support::trace().span(cycle_start_, rank_.hrtime(), rank_.id(),
                              SpanId::RuntimeCycle,
                              {targ("cycle", rec.cycle),
                               targ("mode", mode_name(rec.mode)),
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
