// Diskless buddy replication (docs/FAULTS.md "Crashes" section).
//
// Each active node shadows its owned rows of every registered array onto its
// replication buddy — the successor in the active ring.  The store keeps the
// packed payload of each replicated row verbatim, so restoring after the
// owner's crash is a straight re-frame of the buddy's copies back into the
// shared pack wire format (u32 nrows, then per row u32 row_id,
// u64 payload_bytes, payload — see dist_array.hpp).
//
// The store is deliberately dumb: it does no messaging and knows nothing
// about ownership.  The runtime decides what to ship (dirty-row deltas on
// the monitoring cycle, wholesale rewrites around redistributions) and what
// to restore (a dead predecessor's block).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "dynmpi/row_set.hpp"

namespace dynmpi {

class ReplicaStore {
public:
    explicit ReplicaStore(std::size_t num_arrays);

    /// Absorb a pack-format blob for array `array_idx`, replacing any
    /// previous copy of each contained row.  Returns the rows stored.
    RowSet store_blob(std::size_t array_idx,
                      const std::vector<std::byte>& blob);

    /// Re-frame the stored copies of `rows` (those present) as a
    /// pack-format blob suitable for DistArray::unpack_rows.  Rows the
    /// store never saw are simply absent from the result.
    std::vector<std::byte> extract(std::size_t array_idx,
                                   const RowSet& rows) const;

    /// Row ids framed in a pack-format blob (no payload copies).
    static RowSet rows_in_blob(const std::vector<std::byte>& blob);

    /// Drop replicas of `array_idx` outside `keep`.
    void retain_only(std::size_t array_idx, const RowSet& keep);

    void clear();
    std::size_t bytes() const { return bytes_; }

private:
    // Per array: row id → packed payload.  Ordered so extraction (and thus
    // restore traffic) is deterministic.
    std::vector<std::map<int, std::vector<std::byte>>> rows_;
    std::size_t bytes_ = 0;
};

}  // namespace dynmpi
