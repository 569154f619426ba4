#include "dynmpi/distribution.hpp"

#include <numeric>

#include "support/error.hpp"

namespace dynmpi {

Distribution Distribution::block(int lo, int hi, std::vector<int> counts) {
    DYNMPI_REQUIRE(lo <= hi, "invalid iteration bounds");
    DYNMPI_REQUIRE(!counts.empty(), "block distribution needs parties");
    int total = std::accumulate(counts.begin(), counts.end(), 0);
    DYNMPI_REQUIRE(total == hi - lo,
                   "block counts must cover the iteration space exactly");
    for (int c : counts) DYNMPI_REQUIRE(c >= 0, "negative block count");

    Distribution d;
    d.kind_ = Kind::Block;
    d.lo_ = lo;
    d.hi_ = hi;
    d.parties_ = static_cast<int>(counts.size());
    d.counts_ = std::move(counts);
    d.starts_.resize(d.counts_.size() + 1);
    d.starts_[0] = lo;
    for (std::size_t j = 0; j < d.counts_.size(); ++j)
        d.starts_[j + 1] = d.starts_[j] + d.counts_[j];
    return d;
}

Distribution Distribution::even_block(int lo, int hi, int parties) {
    DYNMPI_REQUIRE(parties > 0, "need at least one party");
    int n = hi - lo;
    std::vector<int> counts(static_cast<std::size_t>(parties));
    for (int j = 0; j < parties; ++j)
        counts[static_cast<std::size_t>(j)] =
            n / parties + (j < n % parties ? 1 : 0);
    return block(lo, hi, std::move(counts));
}

Distribution Distribution::cyclic(int lo, int hi, int parties,
                                  int block_size) {
    DYNMPI_REQUIRE(lo <= hi, "invalid iteration bounds");
    DYNMPI_REQUIRE(parties > 0, "need at least one party");
    DYNMPI_REQUIRE(block_size > 0, "cyclic block size must be positive");
    Distribution d;
    d.kind_ = Kind::Cyclic;
    d.lo_ = lo;
    d.hi_ = hi;
    d.parties_ = parties;
    d.block_size_ = block_size;
    return d;
}

int Distribution::owner_of(int iter) const {
    DYNMPI_REQUIRE(iter >= lo_ && iter < hi_, "iteration out of range");
    if (kind_ == Kind::Block) {
        // Binary search over prefix sums.  It ends with starts_[lo] <= iter
        // < starts_[lo + 1], so party lo owns a row and zero-count parties
        // that share its start are passed over.
        int lo = 0, hi = parties_;
        while (lo + 1 < hi) {
            int mid = (lo + hi) / 2;
            if (starts_[static_cast<std::size_t>(mid)] <= iter)
                lo = mid;
            else
                hi = mid;
        }
        return lo;
    }
    return ((iter - lo_) / block_size_) % parties_;
}

RowSet Distribution::iters_of(int rel) const {
    RowSet out;
    for_each_interval(rel, [&](RowInterval iv) { out.add(iv.lo, iv.hi); });
    return out;
}

int Distribution::count_of(int rel) const {
    if (kind_ == Kind::Block) {
        DYNMPI_REQUIRE(rel >= 0 && rel < parties_, "relative rank out of range");
        return counts_[static_cast<std::size_t>(rel)];
    }
    int count = 0;
    for_each_interval(rel, [&](RowInterval iv) { count += iv.size(); });
    return count;
}

RowInterval Distribution::block_range(int rel) const {
    DYNMPI_REQUIRE(kind_ == Kind::Block, "block_range on non-block");
    DYNMPI_REQUIRE(rel >= 0 && rel < parties_, "relative rank out of range");
    return RowInterval{starts_[static_cast<std::size_t>(rel)],
                       starts_[static_cast<std::size_t>(rel) + 1]};
}

std::vector<int> Distribution::counts() const {
    if (kind_ == Kind::Block) return counts_;
    std::vector<int> c(static_cast<std::size_t>(parties_));
    for (int j = 0; j < parties_; ++j)
        c[static_cast<std::size_t>(j)] = count_of(j);
    return c;
}

}  // namespace dynmpi
