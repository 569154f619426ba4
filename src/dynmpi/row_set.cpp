#include "dynmpi/row_set.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dynmpi {

RowSet::RowSet(int lo, int hi) {
    DYNMPI_REQUIRE(lo <= hi, "interval must have lo <= hi");
    if (lo < hi) intervals_.push_back({lo, hi});
}

void RowSet::add(int lo, int hi) {
    DYNMPI_REQUIRE(lo <= hi, "interval must have lo <= hi");
    if (lo == hi) return;
    // First interval that overlaps or abuts [lo, hi), then every later one
    // that starts at or before hi: they all fuse into a single interval.
    // An ascending append finds its slot at the back in O(log n).
    auto first = std::lower_bound(
        intervals_.begin(), intervals_.end(), lo,
        [](const RowInterval& iv, int v) { return iv.hi < v; });
    auto last = first;
    while (last != intervals_.end() && last->lo <= hi) {
        lo = std::min(lo, last->lo);
        hi = std::max(hi, last->hi);
        ++last;
    }
    if (first == last) {
        intervals_.insert(first, {lo, hi});
    } else {
        *first = {lo, hi};
        intervals_.erase(first + 1, last);
    }
}

void RowSet::add(const RowSet& other) {
    // A contained set adds no row, so the held vector stays as it is (a
    // replica refresh unpacks into a shadow that already holds its rows).
    // Each interval of `other` must then lie inside the first interval
    // here that reaches its end.
    auto held = intervals_.begin();
    std::size_t k = 0;
    for (; k < other.intervals_.size(); ++k) {
        const RowInterval& iv = other.intervals_[k];
        while (held != intervals_.end() && held->hi < iv.hi) ++held;
        if (held == intervals_.end() || held->lo > iv.lo) break;
    }
    if (k == other.intervals_.size()) return;
    // Two-way merge of two sorted lists, coalescing as it goes.
    std::vector<RowInterval> merged;
    merged.reserve(intervals_.size() + other.intervals_.size());
    auto a = intervals_.begin();
    auto b = other.intervals_.begin();
    while (a != intervals_.end() || b != other.intervals_.end()) {
        const RowInterval& next =
            b == other.intervals_.end() ||
                    (a != intervals_.end() && a->lo <= b->lo)
                ? *a++
                : *b++;
        if (!merged.empty() && next.lo <= merged.back().hi)
            merged.back().hi = std::max(merged.back().hi, next.hi);
        else
            merged.push_back(next);
    }
    intervals_ = std::move(merged);
}

RowSet RowSet::unite(const RowSet& other) const {
    RowSet r = *this;
    r.add(other);
    return r;
}

RowSet RowSet::intersect(const RowSet& other) const {
    RowSet out;
    std::size_t i = 0, j = 0;
    while (i < intervals_.size() && j < other.intervals_.size()) {
        const RowInterval& a = intervals_[i];
        const RowInterval& b = other.intervals_[j];
        int lo = std::max(a.lo, b.lo);
        int hi = std::min(a.hi, b.hi);
        if (lo < hi) out.intervals_.push_back({lo, hi});
        if (a.hi < b.hi)
            ++i;
        else
            ++j;
    }
    return out; // already sorted & disjoint
}

RowSet RowSet::subtract(const RowSet& other) const {
    RowSet out;
    const std::vector<RowInterval>& b = other.intervals_;
    std::size_t j = 0; // first subtrahend that can still reach the current a
    for (const auto& a : intervals_) {
        while (j < b.size() && b[j].hi <= a.lo) ++j;
        int cur = a.lo;
        for (std::size_t k = j; k < b.size() && b[k].lo < a.hi; ++k) {
            if (b[k].lo > cur) out.intervals_.push_back({cur, b[k].lo});
            cur = b[k].hi;
            if (cur >= a.hi) break;
        }
        if (cur < a.hi) out.intervals_.push_back({cur, a.hi});
    }
    return out; // construction preserves sorted, disjoint order
}

void RowSet::intersect_with(const RowSet& other) {
    if (intervals_.empty()) return;
    if (other.intervals_.empty()) {
        intervals_.clear();
        return;
    }
    if (other.intervals_.size() == 1) {
        // Clipping by a single interval never splits anything: trim and
        // compact in place, allocation-free.  This is the planner's hot
        // shape — block distributions are one interval per party.
        const RowInterval b = other.intervals_.front();
        std::size_t w = 0;
        for (const RowInterval& a : intervals_) {
            RowInterval c{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
            if (!c.empty()) intervals_[w++] = c;
        }
        intervals_.resize(w);
        return;
    }
    *this = intersect(other);
}

void RowSet::subtract_with(const RowSet& other) {
    if (intervals_.empty() || other.intervals_.empty()) return;
    if (other.intervals_.size() > 1) {
        *this = subtract(other);
        return;
    }
    // A single subtrahend splits at most one interval in two; every other
    // interval shrinks or vanishes, so the result compacts in place.
    const RowInterval b = other.intervals_.front();
    const std::size_t n = intervals_.size();
    std::size_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const RowInterval a = intervals_[i];
        const RowInterval left{a.lo, std::min(a.hi, b.lo)};
        const RowInterval right{std::max(a.lo, b.hi), a.hi};
        if (!left.empty() && !right.empty() && w == i) {
            // The one possible two-piece split with no compaction slack yet:
            // grow by one slot; the tail is already in its final place.
            intervals_[i] = right;
            intervals_.insert(
                intervals_.begin() + static_cast<std::ptrdiff_t>(i), left);
            return;
        }
        if (!left.empty()) intervals_[w++] = left;
        if (!right.empty()) intervals_[w++] = right;
    }
    intervals_.resize(w);
}

bool RowSet::contains(int row) const {
    auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), row,
        [](int v, const RowInterval& iv) { return v < iv.hi; });
    return it != intervals_.end() && it->lo <= row;
}

int RowSet::count() const {
    int n = 0;
    for (const auto& iv : intervals_) n += iv.size();
    return n;
}

std::vector<int> RowSet::to_vector() const {
    std::vector<int> v;
    v.reserve(static_cast<std::size_t>(count()));
    for (const auto& iv : intervals_)
        for (int r = iv.lo; r < iv.hi; ++r) v.push_back(r);
    return v;
}

int RowSet::first() const {
    DYNMPI_REQUIRE(!empty(), "first() on empty RowSet");
    return intervals_.front().lo;
}

int RowSet::last() const {
    DYNMPI_REQUIRE(!empty(), "last() on empty RowSet");
    return intervals_.back().hi - 1;
}

}  // namespace dynmpi
