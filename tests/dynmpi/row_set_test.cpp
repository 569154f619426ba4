#include "dynmpi/row_set.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

TEST(RowSet, SingleIntervalBasics) {
    RowSet s(3, 7);
    EXPECT_EQ(s.count(), 4);
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(6));
    EXPECT_FALSE(s.contains(7));
    EXPECT_FALSE(s.contains(2));
    EXPECT_EQ(s.first(), 3);
    EXPECT_EQ(s.last(), 6);
}

TEST(RowSet, EmptyBehaviour) {
    RowSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0);
    EXPECT_FALSE(s.contains(0));
    EXPECT_THROW(s.first(), Error);
    RowSet degenerate(5, 5);
    EXPECT_TRUE(degenerate.empty());
}

TEST(RowSet, AddCoalescesAdjacent) {
    RowSet s;
    s.add(0, 3);
    s.add(3, 6);
    EXPECT_EQ(s.intervals().size(), 1u);
    EXPECT_EQ(s.intervals()[0], (RowInterval{0, 6}));
}

TEST(RowSet, AddMergesOverlap) {
    RowSet s;
    s.add(0, 5);
    s.add(3, 10);
    s.add(20, 25);
    EXPECT_EQ(s.intervals().size(), 2u);
    EXPECT_EQ(s.count(), 15);
}

TEST(RowSet, IntersectBasics) {
    RowSet a;
    a.add(0, 10);
    a.add(20, 30);
    RowSet b(5, 25);
    RowSet c = a.intersect(b);
    EXPECT_EQ(c.intervals().size(), 2u);
    EXPECT_EQ(c.intervals()[0], (RowInterval{5, 10}));
    EXPECT_EQ(c.intervals()[1], (RowInterval{20, 25}));
}

TEST(RowSet, SubtractSplitsIntervals) {
    RowSet a(0, 10);
    RowSet b(4, 6);
    RowSet c = a.subtract(b);
    EXPECT_EQ(c.intervals().size(), 2u);
    EXPECT_EQ(c.intervals()[0], (RowInterval{0, 4}));
    EXPECT_EQ(c.intervals()[1], (RowInterval{6, 10}));
}

TEST(RowSet, SubtractAllYieldsEmpty) {
    RowSet a(3, 9);
    EXPECT_TRUE(a.subtract(RowSet(0, 20)).empty());
}

TEST(RowSet, SubtractDisjointIsIdentity) {
    RowSet a(0, 5);
    EXPECT_EQ(a.subtract(RowSet(10, 20)), a);
}

TEST(RowSet, UniteKeepsAll) {
    RowSet a(0, 3), b(10, 12);
    RowSet u = a.unite(b);
    EXPECT_EQ(u.count(), 5);
    EXPECT_TRUE(u.contains(1));
    EXPECT_TRUE(u.contains(11));
}

TEST(RowSet, ToVectorAscending) {
    RowSet s;
    s.add(5, 7);
    s.add(1, 3);
    EXPECT_EQ(s.to_vector(), (std::vector<int>{1, 2, 5, 6}));
}

TEST(RowSet, ClipRestrictsRange) {
    RowSet s(0, 100);
    RowSet c = s.clip(40, 60);
    EXPECT_EQ(c.count(), 20);
    EXPECT_EQ(c.first(), 40);
}

TEST(RowSet, InvalidIntervalRejected) {
    EXPECT_THROW(RowSet(5, 3), Error);
    RowSet s;
    EXPECT_THROW(s.add(9, 2), Error);
}

TEST(RowSet, IntersectWithMatchesIntersect) {
    RowSet a;
    a.add(0, 4);
    a.add(6, 10);
    a.add(12, 15);
    // Single-interval operand exercises the in-place fast path.
    RowSet b(3, 13);
    RowSet in_place = a;
    in_place.intersect_with(b);
    EXPECT_EQ(in_place, a.intersect(b));
    // Multi-interval operand falls back to the allocating algorithm.
    RowSet c;
    c.add(1, 2);
    c.add(7, 14);
    in_place = a;
    in_place.intersect_with(c);
    EXPECT_EQ(in_place, a.intersect(c));
    in_place = a;
    in_place.intersect_with(RowSet());
    EXPECT_TRUE(in_place.empty());
}

TEST(RowSet, SubtractWithMatchesSubtract) {
    RowSet a;
    a.add(0, 4);
    a.add(6, 10);
    a.add(12, 15);
    for (RowSet b : {RowSet(7, 9),   // splits the middle interval
                     RowSet(0, 4),   // removes the first exactly
                     RowSet(3, 13),  // trims across all three
                     RowSet(20, 25), // disjoint: identity
                     RowSet()}) {
        RowSet in_place = a;
        in_place.subtract_with(b);
        EXPECT_EQ(in_place, a.subtract(b));
    }
    RowSet multi;
    multi.add(1, 3);
    multi.add(8, 13);
    RowSet in_place = a;
    in_place.subtract_with(multi);
    EXPECT_EQ(in_place, a.subtract(multi));
}

// Property test: set algebra laws on randomized sets, checked against a
// brute-force bitmap model.
class RowSetProperty : public ::testing::TestWithParam<int> {};

namespace {
RowSet random_set(Rng& rng, int universe) {
    RowSet s;
    int k = 1 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < k; ++i) {
        int lo = static_cast<int>(rng.next_below(static_cast<uint64_t>(universe)));
        int hi = lo + static_cast<int>(rng.next_below(12));
        s.add(lo, std::min(hi, universe));
    }
    return s;
}

std::vector<bool> bitmap(const RowSet& s, int universe) {
    std::vector<bool> m(static_cast<size_t>(universe), false);
    for (int r : s.to_vector()) m[static_cast<size_t>(r)] = true;
    return m;
}

/// Many short intervals, appended in random order: multi-interval operands
/// with plenty of overlaps, abutments and gaps.
RowSet random_multi_set(Rng& rng, int universe, std::vector<bool>& model) {
    RowSet s;
    int k = 1 + static_cast<int>(rng.next_below(24));
    for (int i = 0; i < k; ++i) {
        int lo = static_cast<int>(
            rng.next_below(static_cast<uint64_t>(universe)));
        int hi = std::min(universe, lo + static_cast<int>(rng.next_below(9)));
        s.add(lo, hi);
        for (int r = lo; r < hi; ++r) model[static_cast<size_t>(r)] = true;
    }
    return s;
}

/// Sorted, disjoint, non-empty intervals with a gap between neighbours.
void expect_normalized(const RowSet& s) {
    const auto& ivs = s.intervals();
    for (std::size_t i = 0; i < ivs.size(); ++i) {
        ASSERT_LT(ivs[i].lo, ivs[i].hi);
        if (i > 0) {
            ASSERT_GT(ivs[i].lo, ivs[i - 1].hi);
        }
    }
}

void expect_matches(const RowSet& s, const std::vector<bool>& model,
                    const char* what) {
    expect_normalized(s);
    ASSERT_EQ(bitmap(s, static_cast<int>(model.size())), model) << what;
}
}  // namespace

TEST_P(RowSetProperty, AlgebraMatchesBitmapModel) {
    const int universe = 64;
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
    for (int trial = 0; trial < 50; ++trial) {
        RowSet a = random_set(rng, universe);
        RowSet b = random_set(rng, universe);
        auto ma = bitmap(a, universe), mb = bitmap(b, universe);

        auto check = [&](const RowSet& got, auto op, const char* what) {
            auto mg = bitmap(got, universe);
            for (int i = 0; i < universe; ++i)
                ASSERT_EQ(mg[(size_t)i], op(ma[(size_t)i], mb[(size_t)i]))
                    << what << " mismatch at " << i;
        };
        check(a.intersect(b), [](bool x, bool y) { return x && y; }, "and");
        check(a.unite(b), [](bool x, bool y) { return x || y; }, "or");
        check(a.subtract(b), [](bool x, bool y) { return x && !y; }, "diff");

        // In-place variants must agree with their allocating counterparts.
        RowSet ai = a;
        ai.intersect_with(b);
        ASSERT_EQ(ai, a.intersect(b));
        RowSet as = a;
        as.subtract_with(b);
        ASSERT_EQ(as, a.subtract(b));

        expect_normalized(a.unite(b));
    }
}

TEST_P(RowSetProperty, RandomOrderAddsMatchBitmapModel) {
    const int universe = 128;
    Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<bool> model(universe, false);
        RowSet s = random_multi_set(rng, universe, model);
        expect_matches(s, model, "random-order add(lo, hi)");
        for (int r = 0; r < universe; ++r)
            ASSERT_EQ(s.contains(r), model[(size_t)r]) << "contains " << r;
    }
}

TEST_P(RowSetProperty, MultiIntervalAlgebraMatchesBitmapModel) {
    const int universe = 128;
    Rng rng(static_cast<uint64_t>(GetParam()) * 15485863);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<bool> ma(universe, false), mb(universe, false);
        RowSet a = random_multi_set(rng, universe, ma);
        RowSet b = random_multi_set(rng, universe, mb);
        std::vector<bool> both(universe), either(universe), diff(universe);
        for (std::size_t i = 0; i < (size_t)universe; ++i) {
            both[i] = ma[i] && mb[i];
            either[i] = ma[i] || mb[i];
            diff[i] = ma[i] && !mb[i];
        }

        RowSet merged = a;
        merged.add(b);
        expect_matches(merged, either, "add(RowSet)");
        expect_matches(a.unite(b), either, "unite");
        RowSet self = a;
        self.add(self);
        ASSERT_EQ(self, a) << "add(self)";
        RowSet grown = merged;
        grown.add(a.intersect(b));
        ASSERT_EQ(grown, merged) << "add(contained)";

        expect_matches(a.subtract(b), diff, "subtract");
        RowSet sw = a;
        sw.subtract_with(b);
        expect_matches(sw, diff, "subtract_with");
        expect_matches(a.intersect(b), both, "intersect");
        RowSet iw = a;
        iw.intersect_with(b);
        expect_matches(iw, both, "intersect_with");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowSetProperty, ::testing::Range(1, 6));

// The block-cyclic iteration sets the planner builds are long ascending
// append runs; they must coalesce exactly like one-shot construction.
TEST(RowSet, AscendingAppendsCoalesce) {
    RowSet s;
    for (int base = 0; base < 1000; base += 8) s.add(base, base + 4);
    EXPECT_EQ(s.intervals().size(), 125u);
    EXPECT_EQ(s.count(), 500);
    for (int base = 4; base < 1000; base += 8) s.add(base, base + 4);
    EXPECT_EQ(s, RowSet(0, 1000));
}

// Range-for over the intervals of a temporary set: the rvalue overload
// returns them by value, so the loop owns its vector.  Were it a reference
// into the temporary, this would read freed memory (caught under ASan).
TEST(RowSet, RangeForOverTemporaryIntervals) {
    auto make = [] {
        RowSet s;
        for (int base = 0; base < 400; base += 8) s.add(base, base + 4);
        return s;
    };
    int rows = 0, runs = 0;
    for (const RowInterval& iv : make().intervals()) {
        EXPECT_EQ(iv.lo % 8, 0);
        EXPECT_EQ(iv.size(), 4);
        rows += iv.size();
        ++runs;
    }
    EXPECT_EQ(runs, 50);
    EXPECT_EQ(rows, 200);
}

// add_row extends the last interval inline and falls back to add() for any
// other row, so every order yields the normalized set.
TEST(RowSet, AddRowMatchesAdd) {
    RowSet ascending, any_order;
    for (int r : {0, 1, 2, 5, 6, 9}) ascending.add_row(r);
    EXPECT_EQ(ascending, RowSet(0, 3).unite(RowSet(5, 7)).unite(RowSet(9, 10)));
    for (int r : {9, 2, 0, 6, 1, 5, 2}) any_order.add_row(r);
    EXPECT_EQ(any_order, ascending);
}

}  // namespace
}  // namespace dynmpi
