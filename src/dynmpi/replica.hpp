// Diskless buddy replication (docs/FAULTS.md "Crashes" section).
//
// Each active node shadows its owned rows of every registered array onto its
// replication buddy — the successor in the active ring.  The buddy keeps its
// copies in shadow arrays: one empty array of the same kind and shape per
// registered array (DistArray::empty_like), filled by unpack_rows.  The
// copies therefore sit in the same §4.1 row table as the originals, and a
// refresh costs about one copy per row.  Restoring after the owner's crash
// re-packs the buddy's copies with pack_rows, so the wire format is the
// shared one (u32 nrows, then per row u32 row_id, u64 payload_bytes,
// payload — see dist_array.hpp), byte for byte what the owner shipped.
//
// The store owns the whole protocol: it ships refreshes (dirty-row deltas
// on the monitoring cycle, wholesale rewrites around redistributions),
// queues a restore per crashed node when the runtime repairs its active
// set, and drains those restores between buddy and adopter.  The runtime
// decides only when: which cycle refreshes, and when the ring changes.
// Refreshes and restores keep resume points, so a recovery retry picks up
// where an abandoned attempt stopped instead of repeating its messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dynmpi/dist_array.hpp"
#include "dynmpi/distribution.hpp"
#include "dynmpi/redistributor.hpp"
#include "mpisim/collectives.hpp"

namespace dynmpi {

struct RuntimeStats;

class ReplicaStore {
public:
    /// Storage only: one empty shadow per array of `like`, in the same
    /// order.  The protocol calls below need the other constructor.
    explicit ReplicaStore(const std::vector<const DistArray*>& like);
    /// Shadows of the runtime's registered `arrays`, replicated over `rank`.
    ReplicaStore(msg::Rank& rank, std::vector<ArrayInfo>& arrays);

    /// Absorb a pack-format blob for array `array_idx`, replacing any
    /// previous copy of each contained row.  A malformed blob throws and
    /// changes nothing.  Returns the rows stored.
    RowSet store_blob(std::size_t array_idx,
                      const std::vector<std::byte>& blob);

    /// Re-pack the stored copies of `rows` (those present) as a pack-format
    /// blob suitable for DistArray::unpack_rows.  Rows the store never saw
    /// are simply absent from the result.
    std::vector<std::byte> extract(std::size_t array_idx,
                                   const RowSet& rows) const;

    /// Drop replicas of `array_idx` outside `keep`.
    void retain_only(std::size_t array_idx, const RowSet& keep);

    void clear();

    // ---- the replication protocol ----

    /// Leader only: whether `cycle`'s refresh is due, at least `interval_s`
    /// after the last one (0 = every cycle).  Decided once per cycle, so
    /// recovery retries replay the same answer.
    bool refresh_due(int cycle, double interval_s);

    /// Ship this node's rows of every array to its ring successor in
    /// `active` and absorb the predecessor's.  `wholesale` sends all of
    /// `owned` (around redistributions, `salt` = the redistribution
    /// sequence); otherwise only dirty rows go out (`salt` = the cycle), and
    /// not at all after ring_changed in that cycle.  Per-salt resume counters
    /// skip completed sends and receives, so replayed attempts stay matched.
    void refresh(const msg::Group& active, const RowSet& owned,
                 bool wholesale, std::uint64_t salt, RuntimeStats& stats);

    /// Before a crash repair replaces `active` and `dist`: queue one restore
    /// per crashed member, from its buddy (old-ring successor) to its
    /// adopter (the left-merge owner of its block).  Every surviving rank
    /// derives the identical list.
    void queue_restores(const msg::Group& active, const Distribution& dist);

    /// After a crash repair in `cycle`: the successor may be new, so the
    /// next refresh re-ships everything `owned`, and the cycle's
    /// half-finished refresh is abandoned (its tags would no longer line up).
    void ring_changed(const RowSet& owned, int cycle);

    /// Drain queued restores: buddies ship their copies of dead nodes' rows
    /// to the adopters, which unpack them in place.  Rows the buddy never
    /// saw (or whose buddy also died) are added to `lost` for the
    /// application to regenerate.  Safe to retry after a failure.
    void perform_restores(RuntimeStats& stats, RowSet& lost);

private:
    DistArray& shadow(std::size_t array_idx) const;

    std::vector<std::unique_ptr<DistArray>> shadows_;

    msg::Rank* rank_ = nullptr;
    std::vector<ArrayInfo>* arrays_ = nullptr;

    double last_refresh_s_ = -1.0; ///< leader: time of the last refresh go
    int decided_cycle_ = -1;       ///< leader: cycle of the sticky go_
    bool go_ = false;
    int ring_changed_cycle_ = -1;  ///< its delta refresh is abandoned
    int refreshes_done_ = 0;       ///< completed refreshes on this rank
    std::uint64_t xfer_key_ = ~0ULL; ///< resume key (cycle or seq)
    int arrays_sent_ = 0;          ///< per-key retry resume points
    int arrays_recvd_ = 0;

    /// One queued restoration of a dead node's block from its buddy.
    struct PendingRestore {
        int dead = -1;
        int buddy = -1;   ///< old-ring successor of `dead`
        int adopter = -1; ///< the left-merge owner of `dead`'s rows
        int gen = 0;      ///< dead node's generation (tag salt)
        RowSet rows;
        int arrays_done = 0; ///< resume point across retries
        RowSet missing;      ///< rows absent from any array's restore
    };
    std::vector<PendingRestore> pending_;
};

}  // namespace dynmpi
