#include "dynmpi/replica.hpp"

#include "dynmpi/runtime.hpp"
#include "mpisim/rank.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace dynmpi {

using support::targ;

namespace {
constexpr std::uint64_t kWholesaleSalt = 0x4EBCA7AULL;
constexpr std::uint64_t kDeltaSalt = 0x4EBF2E5ULL;

/// Replica traffic: refresh deltas (salted by cycle) and wholesale rewrites
/// (salted by redistribution sequence) share the shape; `wholesale`
/// separates the two tag families.
std::uint64_t replica_tag(bool wholesale, std::uint64_t salt,
                          std::size_t array_idx) {
    return msg::make_tag(
        msg::TagSpace::Runtime,
        hash_combine(wholesale ? kWholesaleSalt : kDeltaSalt,
                     hash_combine(salt, array_idx)));
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
}  // namespace

ReplicaStore::ReplicaStore(const std::vector<const DistArray*>& like) {
    for (const DistArray* a : like) shadows_.push_back(a->empty_like());
}

ReplicaStore::ReplicaStore(msg::Rank& rank, std::vector<ArrayInfo>& arrays)
    : rank_(&rank), arrays_(&arrays) {
    for (const ArrayInfo& a : arrays) shadows_.push_back(a.array->empty_like());
}

DistArray& ReplicaStore::shadow(std::size_t array_idx) const {
    DYNMPI_REQUIRE(array_idx < shadows_.size(), "replica store: bad array");
    return *shadows_[array_idx];
}

// dynmpi-lint: repair-critical
RowSet ReplicaStore::store_blob(std::size_t array_idx,
                                const std::vector<std::byte>& blob) {
    return shadow(array_idx).unpack_rows(blob);
}

// dynmpi-lint: repair-critical
std::vector<std::byte> ReplicaStore::extract(std::size_t array_idx,
                                             const RowSet& rows) const {
    const DistArray& s = shadow(array_idx);
    return s.pack_rows(rows.intersect(s.held()));
}

void ReplicaStore::retain_only(std::size_t array_idx, const RowSet& keep) {
    shadow(array_idx).retain_only(keep);
}

void ReplicaStore::clear() {
    for (auto& s : shadows_) s->retain_only(RowSet());
}

bool ReplicaStore::refresh_due(int cycle, double interval_s) {
    if (decided_cycle_ == cycle) return go_;
    decided_cycle_ = cycle;
    const double now = rank_->hrtime();
    go_ = interval_s <= 0.0 || last_refresh_s_ < 0.0 ||
          now - last_refresh_s_ >= interval_s;
    if (go_) last_refresh_s_ = now;
    return go_;
}

void ReplicaStore::refresh(const msg::Group& active, const RowSet& owned,
                           bool wholesale, std::uint64_t salt,
                           RuntimeStats& stats) {
    if (!wholesale && ring_changed_cycle_ == stats.cycles) return;
    std::vector<ArrayInfo>& arrays = *arrays_;
    const int n = active.size();
    if (n < 2 || arrays.empty()) return; // no buddy to shadow onto
    const int rel = active.index_of(rank_->id());
    if (rel < 0) {
        // Just removed for load: the new ring refreshes among its own
        // members.  Stale replicas die here; readd rebuilds them wholesale.
        clear();
        return;
    }
    const int succ = active.member((rel + 1) % n);
    const int pred = active.member((rel - 1 + n) % n);
    // Replica payload is application data: full CPU + wire cost even when
    // the refresh rides the (control-plane) monitoring cycle.
    msg::Rank::ControlScope data_plane(*rank_, /*enable=*/false);
    // Resume counters make retried recovery attempts replay-safe: completed
    // sends are never duplicated and completed receives never re-posted.
    const std::uint64_t key =
        hash_combine(wholesale ? kWholesaleSalt : kDeltaSalt, salt);
    if (xfer_key_ != key) {
        xfer_key_ = key;
        arrays_sent_ = 0;
        arrays_recvd_ = 0;
    }
    double t0 = rank_->hrtime();
    std::uint64_t bytes_out = 0;
    int rows_out = 0;
    while (arrays_sent_ < static_cast<int>(arrays.size())) {
        auto i = static_cast<std::size_t>(arrays_sent_);
        DistArray& a = *arrays[i].array;
        RowSet rows = wholesale ? owned : a.dirty_rows(owned);
        std::vector<std::byte> blob = a.pack_rows(rows);
        bytes_out += blob.size();
        rank_->send_wire(succ, replica_tag(wholesale, salt, i),
                         std::move(blob));
        a.clear_dirty(rows);
        rows_out += rows.count();
        ++arrays_sent_;
    }
    stats.replica_bytes += bytes_out;
    if (support::metrics().enabled() && bytes_out > 0)
        support::metrics().counter(support::CounterId::RuntimeReplicaBytes)
            .add(static_cast<std::int64_t>(bytes_out));
    while (arrays_recvd_ < static_cast<int>(arrays.size())) {
        auto i = static_cast<std::size_t>(arrays_recvd_);
        auto blob = rank_->recv_wire(pred, replica_tag(wholesale, salt, i));
        RowSet stored = store_blob(i, blob);
        if (wholesale) retain_only(i, stored);
        ++arrays_recvd_;
    }
    ++refreshes_done_;
    if (support::trace().enabled())
        support::trace().span(t0, rank_->hrtime(), rank_->id(),
                              support::SpanId::RuntimeReplicaRefresh,
                              {targ("cycle", stats.cycles),
                               targ("wholesale", wholesale),
                               targ("rows", rows_out),
                               targ("bytes",
                                    static_cast<std::int64_t>(bytes_out))});
}

// Queueing is part of membership repair, which must stay local and total:
// cluster state only, no messaging that could throw mid-repair.
// dynmpi-lint: repair-critical
void ReplicaStore::queue_restores(const msg::Group& active,
                                  const Distribution& dist) {
    auto& cluster = rank_->machine().cluster();
    const int n = active.size();
    int first_survivor = -1;
    for (int j = n - 1; j >= 0; --j)
        if (!cluster.node_crashed(active.member(j)))
            first_survivor = active.member(j);
    for (int j = 0; j < n; ++j) {
        int d = active.member(j);
        if (!cluster.node_crashed(d)) continue;
        RowSet rows = dist.iters_of(j);
        if (rows.empty()) continue;
        PendingRestore pr;
        pr.dead = d;
        pr.buddy = active.member((j + 1) % n);
        pr.adopter = first_survivor;
        for (int k = j - 1; k >= 0; --k)
            if (!cluster.node_crashed(active.member(k))) {
                pr.adopter = active.member(k);
                break;
            }
        pr.gen = cluster.node_generation(d);
        pr.rows = std::move(rows);
        pending_.push_back(std::move(pr));
    }
}

// dynmpi-lint: repair-critical
void ReplicaStore::ring_changed(const RowSet& owned, int cycle) {
    for (auto& ai : *arrays_) ai.array->mark_rows_dirty(owned);
    ring_changed_cycle_ = cycle;
}

void ReplicaStore::perform_restores(RuntimeStats& stats, RowSet& lost) {
    if (pending_.empty()) return;
    std::vector<ArrayInfo>& arrays = *arrays_;
    auto& cluster = rank_->machine().cluster();
    const int me = rank_->id();
    msg::Rank::ControlScope data_plane(*rank_, /*enable=*/false);
    auto it = pending_.begin();
    while (it != pending_.end()) {
        PendingRestore& pr = *it;
        const bool is_buddy = pr.buddy == me;
        const bool is_adopter = pr.adopter == me;
        if (!is_buddy && !is_adopter) {
            it = pending_.erase(it);
            continue;
        }
        const bool buddy_alive = !cluster.node_crashed(pr.buddy);
        if (is_buddy && !is_adopter && buddy_alive) {
            // Ship my copies of the dead node's rows to the adopter, one
            // blob per array.  Tags are unique per (node, incarnation), so
            // the adopter's retried receives match these exact packets.
            while (pr.arrays_done < static_cast<int>(arrays.size())) {
                auto i = static_cast<std::size_t>(pr.arrays_done);
                rank_->send_wire(pr.adopter, restore_tag(pr.dead, pr.gen, i),
                                 extract(i, pr.rows));
                ++pr.arrays_done;
            }
        } else if (is_adopter) {
            while (pr.arrays_done < static_cast<int>(arrays.size())) {
                auto i = static_cast<std::size_t>(pr.arrays_done);
                if (!buddy_alive && !is_buddy) {
                    // Double crash inside one refresh interval: the copies
                    // died with the buddy.  Every remaining row is lost.
                    pr.missing = pr.rows;
                    break;
                }
                std::vector<std::byte> blob =
                    is_buddy ? extract(i, pr.rows)
                             : rank_->recv_wire(
                                   pr.buddy, restore_tag(pr.dead, pr.gen, i));
                RowSet got = arrays[i].array->unpack_rows(blob);
                pr.missing = pr.missing.unite(pr.rows.subtract(got));
                ++pr.arrays_done;
            }
            // Restored rows are fresh content the NEW owner's buddy has
            // never seen — they must ride the next refresh.
            for (auto& ai : arrays) ai.array->mark_rows_dirty(pr.rows);
            lost = lost.unite(pr.missing);
            RestoreRecord rr;
            rr.node = pr.dead;
            rr.buddy = pr.buddy;
            rr.buddy_alive = buddy_alive || is_buddy;
            rr.refreshed = refreshes_done_ > 0;
            rr.restored = pr.rows.subtract(pr.missing).count();
            rr.lost = pr.missing.count();
            stats.restored_rows += rr.restored;
            stats.restores.push_back(rr);
            if (support::metrics().enabled() && rr.restored > 0)
                support::metrics()
                    .counter(support::CounterId::RuntimeRestoredRows)
                    .add(rr.restored);
            if (support::trace().enabled())
                support::trace().instant(
                    rank_->hrtime(), rank_->id(),
                    support::InstantId::RuntimeReplicaRestore,
                    {targ("cycle", stats.cycles), targ("node", pr.dead),
                     targ("buddy", pr.buddy),
                     targ("restored", rr.restored), targ("lost", rr.lost)});
        }
        it = pending_.erase(it);
    }
}

}  // namespace dynmpi
