#include "dynmpi/redistributor.hpp"

#include <algorithm>

#include "mpisim/rank.hpp"
#include "mpisim/tags.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace dynmpi {

RowSet owned_rows(const msg::Group& active, const Distribution& dist,
                  int abs_rank) {
    int rel = active.index_of(abs_rank);
    if (rel < 0) return {};
    return dist.iters_of(rel);
}

namespace {

/// need ∪= rows the DRSDs touch over `iters`, clipped to [0, rows), with
/// no temporary RowSet per descriptor for unit-stride references.
void add_ghost_rows(RowSet& need, const std::vector<Drsd>& accesses,
                    const RowSet& iters, int rows) {
    for (const Drsd& d : accesses) {
        if (d.a == 1) {
            for (const RowInterval& iv : iters.intervals())
                need.add(std::clamp(iv.lo + d.b, 0, rows),
                         std::clamp(iv.hi + d.b, 0, rows));
        } else {
            need.add(rows_touched(d, iters, rows));
        }
    }
}

}  // namespace

RowSet needed_rows(const msg::Group& active, const Distribution& dist,
                   int abs_rank, const std::vector<Drsd>& accesses,
                   int global_rows) {
    int rel = active.index_of(abs_rank);
    if (rel < 0) return {};
    RowSet iters = dist.iters_of(rel);
    RowSet need = iters.clip(0, global_rows);
    add_ghost_rows(need, accesses, iters, global_rows);
    return need;
}

RedistPlan build_redist_plan(const RedistContext& ctx,
                             const std::vector<ArrayInfo>& arrays, int me) {
    DYNMPI_REQUIRE(ctx.old_active && ctx.old_dist && ctx.new_active &&
                       ctx.new_dist,
                   "incomplete redistribution context");
    RedistPlan plan;
    plan.parties = ctx.old_active->members();
    plan.parties.insert(plan.parties.end(), ctx.new_active->members().begin(),
                        ctx.new_active->members().end());
    std::sort(plan.parties.begin(), plan.parties.end());
    plan.parties.erase(std::unique(plan.parties.begin(), plan.parties.end()),
                       plan.parties.end());
    const std::size_t np = plan.parties.size();

    // Per-party geometry is array-independent: old ownership plus the new
    // distribution's iteration set and its row-space clip, each built once
    // instead of once per array.
    std::vector<RowSet> old_owned(np);
    std::vector<RowSet> new_iters(np);
    std::vector<RowSet> new_base(np);
    std::size_t me_idx = np;  // np == "not a party"
    for (std::size_t i = 0; i < np; ++i) {
        old_owned[i] = owned_rows(*ctx.old_active, *ctx.old_dist,
                                  plan.parties[i]);
        int rel = ctx.new_active->index_of(plan.parties[i]);
        if (rel >= 0) {
            new_iters[i] = ctx.new_dist->iters_of(rel);
            new_base[i] = new_iters[i].clip(0, ctx.global_rows);
        }
        if (plan.parties[i] == me) me_idx = i;
    }
    const RowSet no_rows;
    const RowSet& my_old = me_idx < np ? old_owned[me_idx] : no_rows;

    plan.per_array.resize(arrays.size());
    for (std::size_t k = 0; k < arrays.size(); ++k) {
        RedistPlan::ArrayPlan& ap = plan.per_array[k];
        ap.send_to.resize(np);
        ap.recv_from.resize(np);
        const std::vector<Drsd>& acc = arrays[k].accesses;
        if (me_idx < np) {
            ap.my_needed = new_base[me_idx];
            add_ghost_rows(ap.my_needed, acc, new_iters[me_idx],
                           ctx.global_rows);
        }
        RowSet my_incoming = ap.my_needed;
        my_incoming.subtract_with(my_old);
        const bool receiving = !my_incoming.empty();
        for (std::size_t i = 0; i < np; ++i) {
            if (i == me_idx) continue;
            if (receiving) {
                RowSet recv = old_owned[i];
                recv.intersect_with(my_incoming);
                ap.recv_from[i] = std::move(recv);
            }
            if (my_old.empty()) continue;  // nothing to send from here
            // The peer's needed set is built exactly once per
            // (array, party) and consumed in place for the send side.
            RowSet send = new_base[i];
            add_ghost_rows(send, acc, new_iters[i], ctx.global_rows);
            send.subtract_with(old_owned[i]);
            send.intersect_with(my_old);
            ap.send_to[i] = std::move(send);
        }
    }
    return plan;
}

namespace {

std::uint64_t redist_tag(std::uint64_t seq, std::size_t array_idx, int src,
                         int dst) {
    std::uint64_t h = hash_combine(seq, array_idx);
    h = hash_combine(h, static_cast<std::uint64_t>(src));
    h = hash_combine(h, static_cast<std::uint64_t>(dst));
    return msg::make_tag(msg::TagSpace::Runtime, h);
}

}  // namespace

RedistStats execute_redistribution(msg::Rank& rank, const RedistContext& ctx,
                                   std::vector<ArrayInfo>& arrays,
                                   std::uint64_t redist_seq) {
    RedistStats stats;
    const int me = rank.id();
    const bool observed =
        support::trace().enabled() || support::metrics().enabled();
    const double t_start = observed ? rank.hrtime() : 0.0;

    // Phase 0: derive the complete schedule once.  Every later phase walks
    // plan.parties (ascending absolute-rank order), so message ordering is
    // deterministic and identical on every rank.
    const RedistPlan plan = build_redist_plan(ctx, arrays, me);
    const std::size_t np = plan.parties.size();
    const double t_planned = observed ? rank.hrtime() : 0.0;

    // Phase 1: pack and send everything (eager, buffered — no deadlock).
    for (std::size_t k = 0; k < arrays.size(); ++k) {
        RedistStats::ArrayTransfer at;
        at.array = arrays[k].array->name();
        for (std::size_t i = 0; i < np; ++i) {
            const RowSet& rows = plan.per_array[k].send_to[i];
            if (rows.empty()) continue;
            const int dst = plan.parties[i];
            auto payload = arrays[k].array->pack_rows(rows);
            at.rows_moved += static_cast<std::uint64_t>(rows.count());
            at.bytes += payload.size();
            ++at.messages;
            rank.send_wire(dst, redist_tag(redist_seq, k, me, dst),
                           std::move(payload));
        }
        stats.rows_moved += at.rows_moved;
        stats.bytes += at.bytes;
        stats.messages += at.messages;
        stats.per_array.push_back(std::move(at));
    }
    const double t_packed = observed ? rank.hrtime() : 0.0;

    // Phase 2: receive and unpack the symmetric half of the plan.
    for (std::size_t k = 0; k < arrays.size(); ++k) {
        for (std::size_t i = 0; i < np; ++i) {
            if (plan.per_array[k].recv_from[i].empty()) continue;
            const int src = plan.parties[i];
            auto payload =
                rank.recv_wire(src, redist_tag(redist_seq, k, src, me));
            arrays[k].array->unpack_rows(payload);
        }
    }
    const double t_unpacked = observed ? rank.hrtime() : 0.0;

    // Phase 2.5: redistribution is a synchronization point — no node may
    // resume computing until every transfer has landed, otherwise the drain
    // leaks into the next cycle's measurements.
    if (np > 1 && std::find(plan.parties.begin(), plan.parties.end(), me) !=
                      plan.parties.end())
        msg::barrier(rank, msg::Group(plan.parties));
    const double t_synced = observed ? rank.hrtime() : 0.0;

    // Phase 3: drop what is no longer needed, allocate anything still
    // missing (e.g. ghost slots the application fills via its own halo
    // exchange), and verify coverage.
    for (std::size_t k = 0; k < arrays.size(); ++k) {
        const RowSet& need = plan.per_array[k].my_needed;
        arrays[k].array->retain_only(need);
        arrays[k].array->ensure_rows(need);
        DYNMPI_CHECK(arrays[k].array->held() == need,
                     "redistribution left " + arrays[k].array->name() +
                         " with wrong row coverage");
    }

    if (observed) {
        if (support::metrics().enabled()) {
            using support::CounterId;
            using support::HistogramId;
            auto& mx = support::metrics();
            mx.counter(CounterId::RedistRowsMoved).add(stats.rows_moved);
            mx.counter(CounterId::RedistBytes).add(stats.bytes);
            mx.counter(CounterId::RedistMessages).add(stats.messages);
            mx.histogram(HistogramId::RedistPlanS).record(t_planned - t_start);
            mx.histogram(HistogramId::RedistPackS).record(t_packed - t_planned);
            mx.histogram(HistogramId::RedistUnpackS)
                .record(t_unpacked - t_packed);
            mx.histogram(HistogramId::RedistSyncS)
                .record(t_synced - t_unpacked);
        }
        if (support::trace().enabled()) {
            using support::SpanId;
            using support::targ;
            auto& tr = support::trace();
            tr.span(t_start, t_planned, me, SpanId::RedistPlan,
                    {targ("seq", redist_seq)});
            tr.span(t_planned, t_packed, me, SpanId::RedistPack,
                    {targ("seq", redist_seq), targ("rows", stats.rows_moved),
                     targ("bytes", stats.bytes),
                     targ("messages", stats.messages)});
            tr.span(t_packed, t_unpacked, me, SpanId::RedistUnpack,
                    {targ("seq", redist_seq)});
            tr.span(t_unpacked, t_synced, me, SpanId::RedistSync,
                    {targ("seq", redist_seq)});
            tr.span(t_synced, rank.hrtime(), me, SpanId::RedistCleanup,
                    {targ("seq", redist_seq)});
        }
    }
    return stats;
}

}  // namespace dynmpi
