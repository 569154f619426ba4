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
// The store is deliberately dumb: it does no messaging and knows nothing
// about ownership.  The runtime decides what to ship (dirty-row deltas on
// the monitoring cycle, wholesale rewrites around redistributions) and what
// to restore (a dead predecessor's block).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dynmpi/dist_array.hpp"

namespace dynmpi {

class ReplicaStore {
public:
    /// One empty shadow per array of `like`, in the same order.
    explicit ReplicaStore(const std::vector<const DistArray*>& like);

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

private:
    DistArray& shadow(std::size_t array_idx) const;

    std::vector<std::unique_ptr<DistArray>> shadows_;
};

}  // namespace dynmpi
