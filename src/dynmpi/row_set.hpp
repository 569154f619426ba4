// Sorted interval sets over row indices.
//
// Ownership, DRSD expansion, and redistribution planning all manipulate sets
// of row indices.  Block distributions produce one interval per node; cyclic
// distributions and DRSD unions produce many — RowSet keeps them normalized
// (sorted, disjoint, coalesced) and provides the set algebra the
// redistribution planner is built on.
#pragma once

#include <cstdint>
#include <vector>

namespace dynmpi {

/// Half-open interval of row indices [lo, hi).
struct RowInterval {
    int lo = 0;
    int hi = 0;
    int size() const { return hi - lo; }
    bool empty() const { return hi <= lo; }
    bool operator==(const RowInterval&) const = default;
};

class RowSet {
public:
    RowSet() = default;
    /// Single-interval set [lo, hi).
    RowSet(int lo, int hi);

    static RowSet single(int row) { return RowSet(row, row + 1); }

    /// Union in [lo, hi): a binary search, then one in-place insert or
    /// erase.  An ascending append touches only the back, O(log n).
    void add(int lo, int hi);
    /// Union in another set: one linear merge.
    void add(const RowSet& other);

    RowSet intersect(const RowSet& other) const;
    /// Linear in the interval counts of both sets.
    RowSet subtract(const RowSet& other) const;
    RowSet unite(const RowSet& other) const;

    /// In-place variants for hot paths (redistribution planning): no
    /// temporary RowSet is allocated for the result.
    void intersect_with(const RowSet& other);
    void subtract_with(const RowSet& other);

    bool contains(int row) const;
    bool empty() const { return intervals_.empty(); }

    /// Total number of rows in the set.
    int count() const;

    /// Normalized intervals, sorted and disjoint.
    const std::vector<RowInterval>& intervals() const { return intervals_; }

    /// Materialize every row index in ascending order.
    std::vector<int> to_vector() const;

    /// Smallest / largest row; set must be non-empty.
    int first() const;
    int last() const;

    /// Clip to [lo, hi).
    RowSet clip(int lo, int hi) const { return intersect(RowSet(lo, hi)); }

    bool operator==(const RowSet&) const = default;

private:
    std::vector<RowInterval> intervals_;
};

}  // namespace dynmpi
