// Pure-plan tests for redistribution scheduling (no machine needed), plus
// machine-backed execution tests for data integrity.
#include "dynmpi/redistributor.hpp"

#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "dynmpi/dense_array.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

using msg::Group;

std::vector<Drsd> halo_accesses(const std::string& name) {
    return {
        Drsd{name, AccessMode::Write, 0, 1, 0},
        Drsd{name, AccessMode::Read, 0, 1, -1},
        Drsd{name, AccessMode::Read, 0, 1, +1},
    };
}

TEST(RedistPlan, OwnedRowsFollowDistribution) {
    Group g({0, 1, 2});
    auto d = Distribution::block(0, 30, {10, 15, 5});
    EXPECT_EQ(owned_rows(g, d, 0), RowSet(0, 10));
    EXPECT_EQ(owned_rows(g, d, 1), RowSet(10, 25));
    EXPECT_EQ(owned_rows(g, d, 2), RowSet(25, 30));
    EXPECT_TRUE(owned_rows(g, d, 7).empty()); // non-member
}

TEST(RedistPlan, NeededRowsIncludeGhosts) {
    Group g({0, 1, 2});
    auto d = Distribution::block(0, 30, {10, 10, 10});
    auto acc = halo_accesses("A");
    EXPECT_EQ(needed_rows(g, d, 1, acc, 30), RowSet(9, 21));
    EXPECT_EQ(needed_rows(g, d, 0, acc, 30), RowSet(0, 11)); // clipped low
    EXPECT_EQ(needed_rows(g, d, 2, acc, 30), RowSet(19, 30)); // clipped high
}

TEST(RedistPlan, NoAccessesMeansOwnedOnly) {
    Group g({0, 1});
    auto d = Distribution::block(0, 10, {4, 6});
    EXPECT_EQ(needed_rows(g, d, 1, {}, 10), RowSet(4, 10));
}

/// Rows `src` ships to `dst` under build_redist_plan, read from both ends:
/// src's send_to slot for dst and dst's recv_from slot for src must agree.
RowSet planned(const RedistContext& ctx, const std::vector<Drsd>& acc,
               int src, int dst) {
    std::vector<ArrayInfo> arrays(1);
    arrays[0].accesses = acc;
    const RedistPlan out = build_redist_plan(ctx, arrays, src);
    const RedistPlan in = build_redist_plan(ctx, arrays, dst);
    auto slot = [](const RedistPlan& p, const std::vector<RowSet>& sets,
                   int abs) {
        for (std::size_t i = 0; i < p.parties.size(); ++i)
            if (p.parties[i] == abs) return sets[i];
        return RowSet{};
    };
    RowSet sent = slot(out, out.per_array[0].send_to, dst);
    EXPECT_EQ(sent, slot(in, in.per_array[0].recv_from, src))
        << "src " << src << " dst " << dst;
    return sent;
}

TEST(RedistPlan, TransferMovesOnlyChangedRows) {
    Group g({0, 1});
    auto oldd = Distribution::block(0, 100, {50, 50});
    auto newd = Distribution::block(0, 100, {30, 70});
    RedistContext ctx{100, &g, &oldd, &g, &newd};
    std::vector<Drsd> acc; // no ghosts: pure ownership
    // Node 1 now also owns rows 30..50, previously owned by node 0.
    EXPECT_EQ(planned(ctx, acc, 0, 1), RowSet(30, 50));
    EXPECT_TRUE(planned(ctx, acc, 1, 0).empty());
    EXPECT_TRUE(planned(ctx, acc, 0, 0).empty()); // self
}

TEST(RedistPlan, TransferIncludesGhostRefresh) {
    Group g({0, 1});
    auto oldd = Distribution::block(0, 100, {50, 50});
    auto newd = Distribution::block(0, 100, {40, 60});
    RedistContext ctx{100, &g, &oldd, &g, &newd};
    auto acc = halo_accesses("A");
    // Node 0 needs rows 0..41 (ghost row 40 now at 40? new own 0..40 plus
    // ghost 40). Ghost row 40 was old-owned by node 0 itself; ghost row 41
    // too. Node 1 needs 39..100: ghost row 39 comes from node 0.
    RowSet s01 = planned(ctx, acc, 0, 1);
    EXPECT_TRUE(s01.contains(39)); // ghost refresh
    EXPECT_TRUE(s01.contains(40));
    EXPECT_TRUE(s01.contains(49));
    EXPECT_FALSE(s01.contains(50)); // node 1 already owned it
}

TEST(RedistPlan, NodeRemovalDrainsItsRows) {
    Group oldg({0, 1, 2});
    Group newg({0, 2}); // node 1 physically dropped
    auto oldd = Distribution::block(0, 30, {10, 10, 10});
    auto newd = Distribution::block(0, 30, {15, 15});
    RedistContext ctx{30, &oldg, &oldd, &newg, &newd};
    std::vector<Drsd> acc;
    // Node 1's old rows 10..20 split between nodes 0 and 2.
    EXPECT_EQ(planned(ctx, acc, 1, 0), RowSet(10, 15));
    EXPECT_EQ(planned(ctx, acc, 1, 2), RowSet(15, 20));
    // Node 1 receives nothing.
    EXPECT_TRUE(planned(ctx, acc, 0, 1).empty());
    EXPECT_TRUE(planned(ctx, acc, 2, 1).empty());
}

TEST(RedistPlan, NodeReaddReceivesItsNewRows) {
    Group oldg({0, 2});
    Group newg({0, 1, 2}); // node 1 re-added
    auto oldd = Distribution::block(0, 30, {15, 15});
    auto newd = Distribution::block(0, 30, {10, 10, 10});
    RedistContext ctx{30, &oldg, &oldd, &newg, &newd};
    std::vector<Drsd> acc;
    EXPECT_EQ(planned(ctx, acc, 0, 1), RowSet(10, 15));
    EXPECT_EQ(planned(ctx, acc, 2, 1), RowSet(15, 20));
}

TEST(RedistPlan, PlanIsSymmetricallyConsistent) {
    // For every pair, what i sends to j is exactly what j expects from i —
    // and transfers partition each node's newly-needed rows.
    Group oldg({0, 1, 2, 3});
    Group newg({0, 1, 3});
    auto oldd = Distribution::block(0, 64, {16, 16, 16, 16});
    auto newd = Distribution::block(0, 64, {30, 4, 30});
    RedistContext ctx{64, &oldg, &oldd, &newg, &newd};
    auto acc = halo_accesses("A");
    for (int dst = 0; dst < 4; ++dst) {
        RowSet incoming;
        for (int src = 0; src < 4; ++src) {
            RowSet t = planned(ctx, acc, src, dst);
            EXPECT_TRUE(incoming.intersect(t).empty())
                << "row sent twice to " << dst;
            incoming.add(t);
        }
        RowSet need = needed_rows(newg, newd, dst, acc, 64);
        RowSet kept = owned_rows(oldg, oldd, dst).intersect(need);
        EXPECT_EQ(incoming.unite(kept), need) << "coverage for " << dst;
    }
}

/// Brute-force reference for the plan, sharing no code with it: rows `abs`
/// needs under (active, dist), built row by row from the iterations
/// Distribution::owner_of assigns it and the rows each DRSD touches there.
RowSet oracle_needed(const Group& active, const Distribution& dist, int abs,
                     const std::vector<Drsd>& acc, int rows) {
    std::vector<bool> need(static_cast<std::size_t>(rows), false);
    auto mark = [&](int row) {
        if (row >= 0 && row < rows) need[static_cast<std::size_t>(row)] = true;
    };
    for (int i = dist.lo(); i < dist.hi(); ++i) {
        if (active.member(dist.owner_of(i)) != abs) continue;
        mark(i);
        for (const Drsd& d : acc) mark(d.a * i + d.b);
    }
    RowSet out;
    for (int row = 0; row < rows; ++row)
        if (need[static_cast<std::size_t>(row)]) out.add(row, row + 1);
    return out;
}

/// Rows `src` ships to `dst`: each row `dst` newly needs whose old owner,
/// by Distribution::owner_of, is `src` and not `dst` itself.
RowSet oracle_transfer(const RedistContext& ctx, const std::vector<Drsd>& acc,
                       int src, int dst) {
    RowSet out;
    if (src == dst) return out;
    for (int row : oracle_needed(*ctx.new_active, *ctx.new_dist, dst, acc,
                                 ctx.global_rows)
                       .to_vector())
        if (ctx.old_active->member(ctx.old_dist->owner_of(row)) == src)
            out.add(row, row + 1);
    return out;
}

TEST(RedistPlan, PlanMatchesRowOwnerOracle) {
    // The plan-once schedule must be row-for-row identical to the per-row
    // owner oracle, for every perspective rank, across distribution shape
    // changes (block -> cyclic) and active-set shrink/grow, for a halo, an
    // owned-only and a strided array.
    const int rows = 48;
    std::vector<ArrayInfo> arrays(3);
    arrays[0].accesses = halo_accesses("A");
    arrays[2].accesses = {Drsd{"C", AccessMode::Read, 0, 2, 1}};

    auto check = [&](const Group& oldg, const Distribution& oldd,
                     const Group& newg, const Distribution& newd) {
        RedistContext ctx{rows, &oldg, &oldd, &newg, &newd};
        for (int me = 0; me < 7; ++me) { // includes non-parties
            RedistPlan plan = build_redist_plan(ctx, arrays, me);
            ASSERT_EQ(plan.per_array.size(), arrays.size());
            for (std::size_t k = 0; k < arrays.size(); ++k) {
                const auto& ap = plan.per_array[k];
                const auto& acc = arrays[k].accesses;
                ASSERT_EQ(ap.send_to.size(), plan.parties.size());
                ASSERT_EQ(ap.recv_from.size(), plan.parties.size());
                for (std::size_t i = 0; i < plan.parties.size(); ++i) {
                    const int peer = plan.parties[i];
                    EXPECT_EQ(ap.send_to[i],
                              oracle_transfer(ctx, acc, me, peer))
                        << "send me=" << me << " peer=" << peer << " k=" << k;
                    EXPECT_EQ(ap.recv_from[i],
                              oracle_transfer(ctx, acc, peer, me))
                        << "recv me=" << me << " peer=" << peer << " k=" << k;
                }
                EXPECT_EQ(ap.my_needed,
                          oracle_needed(newg, newd, me, acc, rows))
                    << "needed me=" << me << " k=" << k;
            }
        }
    };

    // Same membership, block -> cyclic.
    check(Group({0, 1, 2, 3}), Distribution::block(0, rows, {12, 12, 12, 12}),
          Group({0, 1, 2, 3}), Distribution::cyclic(0, rows, 4));
    // Shrink: six nodes down to three, even block -> block-cyclic.
    check(Group({0, 1, 2, 3, 4, 5}), Distribution::even_block(0, rows, 6),
          Group({1, 3, 4}), Distribution::cyclic(0, rows, 3, 2));
    // Grow: two nodes up to four, cyclic -> variable block.
    check(Group({0, 2}), Distribution::cyclic(0, rows, 2),
          Group({0, 1, 2, 4}), Distribution::block(0, rows, {10, 14, 16, 8}));
}

// ---------------------------------------------------------------------------
// Execution on the machine
// ---------------------------------------------------------------------------

TEST(RedistExec, DenseDataSurvivesOwnershipChange) {
    msg::Machine m(quiet_cluster(3));
    m.run([](msg::Rank& r) {
        Group g({0, 1, 2});
        auto oldd = Distribution::block(0, 30, {10, 10, 10});
        auto newd = Distribution::block(0, 30, {4, 20, 6});

        std::vector<ArrayInfo> arrays;
        ArrayInfo ai;
        ai.array = std::make_unique<DenseArray>("A", 30, 8, sizeof(double));
        ai.accesses = halo_accesses("A");
        arrays.push_back(std::move(ai));

        auto& A = static_cast<DenseArray&>(*arrays[0].array);
        RowSet mine = needed_rows(g, oldd, r.id(), arrays[0].accesses, 30);
        A.ensure_rows(mine);
        // Each node authors only the rows it OWNS.
        for (int row : owned_rows(g, oldd, r.id()).to_vector())
            for (int j = 0; j < 8; ++j)
                A.at<double>(row, j) = row * 1000.0 + j;

        RedistContext ctx{30, &g, &oldd, &g, &newd};
        execute_redistribution(r, ctx, arrays, 1);

        RowSet need = needed_rows(g, newd, r.id(), arrays[0].accesses, 30);
        EXPECT_EQ(A.held(), need);
        for (int row : need.to_vector())
            for (int j = 0; j < 8; ++j)
                EXPECT_DOUBLE_EQ(A.at<double>(row, j), row * 1000.0 + j)
                    << "rank " << r.id() << " row " << row;
    });
}

TEST(RedistExec, SparseDataAndMetadataSurvive) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        Group g({0, 1});
        auto oldd = Distribution::block(0, 20, {10, 10});
        auto newd = Distribution::block(0, 20, {3, 17});

        std::vector<ArrayInfo> arrays;
        ArrayInfo ai;
        ai.array = std::make_unique<SparseMatrix>("S", 20, 40);
        ai.accesses = {Drsd{"S", AccessMode::Write, 0, 1, 0}};
        arrays.push_back(std::move(ai));
        auto& S = static_cast<SparseMatrix&>(*arrays[0].array);

        S.ensure_rows(owned_rows(g, oldd, r.id()));
        for (int row : owned_rows(g, oldd, r.id()).to_vector()) {
            S.set(row, row % 40, row * 2.0);
            S.set(row, (row * 7) % 40, -row * 1.0);
        }

        RedistContext ctx{20, &g, &oldd, &g, &newd};
        execute_redistribution(r, ctx, arrays, 9);

        for (int row : owned_rows(g, newd, r.id()).to_vector()) {
            EXPECT_DOUBLE_EQ(S.get(row, row % 40), row * 2.0);
            if ((row * 7) % 40 != row % 40) {
                EXPECT_DOUBLE_EQ(S.get(row, (row * 7) % 40), -row * 1.0);
            }
        }
    });
}

TEST(RedistExec, MultipleArraysMoveTogether) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        Group g({0, 1});
        auto oldd = Distribution::block(0, 16, {8, 8});
        auto newd = Distribution::block(0, 16, {12, 4});

        std::vector<ArrayInfo> arrays;
        for (const char* name : {"A", "B"}) {
            ArrayInfo ai;
            ai.array = std::make_unique<DenseArray>(name, 16, 2, sizeof(int));
            ai.accesses = {Drsd{name, AccessMode::Write, 0, 1, 0}};
            arrays.push_back(std::move(ai));
        }
        for (auto& ai : arrays) {
            auto& arr = static_cast<DenseArray&>(*ai.array);
            arr.ensure_rows(owned_rows(g, oldd, r.id()));
            int salt = ai.array->name() == "A" ? 1 : 2;
            for (int row : owned_rows(g, oldd, r.id()).to_vector())
                arr.at<int>(row, 0) = row * 10 + salt;
        }

        RedistContext ctx{16, &g, &oldd, &g, &newd};
        auto stats = execute_redistribution(r, ctx, arrays, 3);
        if (r.id() == 0) {
            // Rank 1 ships rows 8..12 of both arrays to rank 0.
            EXPECT_EQ(stats.messages, 0u); // rank 0 sends nothing
        }
        for (auto& ai : arrays) {
            auto& arr = static_cast<DenseArray&>(*ai.array);
            int salt = ai.array->name() == "A" ? 1 : 2;
            for (int row : owned_rows(g, newd, r.id()).to_vector())
                EXPECT_EQ(arr.at<int>(row, 0), row * 10 + salt);
        }
    });
}

TEST(RedistExec, IdentityRedistributionRefreshesGhostsOnly) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        Group g({0, 1});
        auto d = Distribution::block(0, 10, {5, 5});
        std::vector<ArrayInfo> arrays;
        ArrayInfo ai;
        ai.array = std::make_unique<DenseArray>("A", 10, 1, sizeof(double));
        ai.accesses = halo_accesses("A");
        arrays.push_back(std::move(ai));
        auto& A = static_cast<DenseArray&>(*arrays[0].array);
        A.ensure_rows(needed_rows(g, d, r.id(), arrays[0].accesses, 10));
        for (int row : owned_rows(g, d, r.id()).to_vector())
            A.at<double>(row, 0) = 5.0 + row;

        RedistContext ctx{10, &g, &d, &g, &d};
        auto stats = execute_redistribution(r, ctx, arrays, 4);
        // Only the single ghost row crosses in each direction.
        EXPECT_EQ(stats.rows_moved, 1u);
        // Ghost got refreshed with the authoritative value.
        int ghost = r.id() == 0 ? 5 : 4;
        EXPECT_DOUBLE_EQ(A.at<double>(ghost, 0), 5.0 + ghost);
    });
}

}  // namespace
}  // namespace dynmpi
