// Iteration/row distributions (paper §2.1).
//
// Dyn-MPI distributes the first dimension of registered arrays.  Supported
// shapes are the paper's two: *variable block* (a contiguous, possibly
// unequal range per active node) and *cyclic* (iterations dealt modulo the
// active-node count).  A Distribution maps the global iteration space
// [lo, hi) onto `parties` relative ranks — the active nodes, in group order.
#pragma once

#include <algorithm>
#include <vector>

#include "dynmpi/row_set.hpp"
#include "support/error.hpp"

namespace dynmpi {

class Distribution {
public:
    enum class Kind { Block, Cyclic };

    Distribution() = default;

    /// Variable block: counts[j] iterations go to relative rank j, in order.
    /// sum(counts) must equal hi - lo.
    static Distribution block(int lo, int hi, std::vector<int> counts);

    /// Equal block split of [lo, hi) over `parties` ranks (remainder spread
    /// over the first ranks).
    static Distribution even_block(int lo, int hi, int parties);

    /// Cyclic with the given block size (1 = classic cyclic).
    static Distribution cyclic(int lo, int hi, int parties,
                               int block_size = 1);

    Kind kind() const { return kind_; }
    int lo() const { return lo_; }
    int hi() const { return hi_; }
    int parties() const { return parties_; }
    int total_iters() const { return hi_ - lo_; }

    /// Relative rank owning iteration i.
    int owner_of(int iter) const;

    /// Iterations assigned to relative rank j.
    RowSet iters_of(int rel) const;

    /// Visit the iterations of relative rank j as its maximal runs, in
    /// ascending order, calling f(RowInterval) once per run without
    /// building a set.  A party with no iterations is never visited.
    template <typename F>
    void for_each_interval(int rel, F&& f) const;

    /// Number of iterations assigned to relative rank j.
    int count_of(int rel) const;

    /// Block only: contiguous range of relative rank j.
    RowInterval block_range(int rel) const;

    /// Per-party iteration counts.
    std::vector<int> counts() const;

    bool operator==(const Distribution&) const = default;

private:
    Kind kind_ = Kind::Block;
    int lo_ = 0;
    int hi_ = 0;
    int parties_ = 0;
    int block_size_ = 1;         ///< cyclic only
    std::vector<int> counts_;    ///< block only
    std::vector<int> starts_;    ///< block only: prefix sums (size parties+1)
};

template <typename F>
void Distribution::for_each_interval(int rel, F&& f) const {
    DYNMPI_REQUIRE(rel >= 0 && rel < parties_, "relative rank out of range");
    if (kind_ == Kind::Block) {
        const RowInterval iv{starts_[static_cast<std::size_t>(rel)],
                             starts_[static_cast<std::size_t>(rel) + 1]};
        if (!iv.empty()) f(iv);
        return;
    }
    // A lone party's blocks abut: they form one run.
    const int step = parties_ == 1 ? hi_ - lo_ : block_size_;
    const int stride = step * parties_;
    for (int base = lo_ + rel * step; base < hi_; base += stride)
        f(RowInterval{base, std::min(base + step, hi_)});
}

}  // namespace dynmpi
