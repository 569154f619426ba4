// Redistribution planning and execution (paper §4.4).
//
// A redistribution is described by (old active set, old distribution) →
// (new active set, new distribution).  Because every node knows both
// distributions and every array's DRSDs, the complete transfer plan is a
// deterministic pure function — no negotiation round is needed: each node
// derives exactly which rows it must send to and receive from every peer.
//
// Authoritative data for a row lives at its *old owner*; nodes re-fetch even
// rows they hold as (possibly stale) ghosts.  Execution packs rows (sparse
// rows are flattened to vectors on the wire), sends eagerly, receives, then
// drops storage for rows no longer needed — surviving rows are reused in
// place, which is the point of the §4.1 allocation scheme.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dynmpi/dist_array.hpp"
#include "dynmpi/distribution.hpp"
#include "dynmpi/drsd.hpp"
#include "mpisim/collectives.hpp"

namespace dynmpi {

/// A registered array plus its access descriptors.
struct ArrayInfo {
    std::unique_ptr<DistArray> array;
    std::vector<Drsd> accesses;
};

/// One redistribution's endpoints.
struct RedistContext {
    int global_rows = 0;
    const msg::Group* old_active = nullptr;
    const Distribution* old_dist = nullptr;
    const msg::Group* new_active = nullptr;
    const Distribution* new_dist = nullptr;
};

/// Rows `abs_rank` owns under (active, dist): its iteration block, identity-
/// mapped into row space.  Empty for non-members.
RowSet owned_rows(const msg::Group& active, const Distribution& dist,
                  int abs_rank);

/// Rows `abs_rank` must hold for `accesses` under (active, dist): its owned
/// rows plus every row its DRSDs touch (ghosts).  Empty for non-members.
RowSet needed_rows(const msg::Group& active, const Distribution& dist,
                   int abs_rank, const std::vector<Drsd>& accesses,
                   int global_rows);

/// One redistribution's complete transfer schedule from the calling rank's
/// perspective, computed once and shared by the pack, unpack, and cleanup
/// phases.  A party ships to a peer the rows it owned under the old layout
/// that the peer needs under the new one and did not own before.  Building
/// the plan materializes every party's old-owned RowSet once (it is
/// array-independent) and every (array, party) needed RowSet exactly once:
/// O(P·A) set constructions, not one rebuild per (src, dst) pair.
struct RedistPlan {
    /// Union of old and new active members, ascending — the deterministic
    /// traversal order of every execution phase.
    std::vector<int> parties;

    struct ArrayPlan {
        /// Rows this rank ships to / receives from parties[i].  Both are
        /// empty at this rank's own slot.
        std::vector<RowSet> send_to;
        std::vector<RowSet> recv_from;
        /// Rows this rank must hold once the redistribution lands — the
        /// cleanup phase's retain/ensure target.
        RowSet my_needed;
    };
    /// One plan per registered array, in registration order.
    std::vector<ArrayPlan> per_array;
};

/// Build the calling rank's schedule for one redistribution.  Pure and
/// deterministic: every rank derives a mutually consistent plan from the
/// shared context, so no negotiation round is needed.
RedistPlan build_redist_plan(const RedistContext& ctx,
                             const std::vector<ArrayInfo>& arrays, int me);

struct RedistStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t rows_moved = 0;

    /// Per-array slice of the totals above, in registration order (what this
    /// rank *sent*; feeds the redist.apply trace event's breakdown).
    struct ArrayTransfer {
        std::string array;
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        std::uint64_t rows_moved = 0;
    };
    std::vector<ArrayTransfer> per_array;
};

/// Execute the full plan for all arrays on the calling rank.  Collective
/// across the union of old and new active sets (every member must call with
/// identical arguments).  `redist_seq` isolates this redistribution's tags.
RedistStats execute_redistribution(msg::Rank& rank, const RedistContext& ctx,
                                   std::vector<ArrayInfo>& arrays,
                                   std::uint64_t redist_seq);

}  // namespace dynmpi
