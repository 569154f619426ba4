// End-to-end tests of the Dyn-MPI runtime state machine on the simulated
// cluster: detection → grace → redistribution → post-grace → removal.
#include "dynmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "sim/fault_plan.hpp"

namespace dynmpi {
namespace {

RuntimeOptions fast_opts() {
    RuntimeOptions o;
    o.calibrate = false; // defaults match the simulated network
    return o;
}

/// A minimal Jacobi-like SPMD driver: N rows, per-row cost `row_cost`,
/// nearest-neighbor halo exchange, `cycles` phase cycles.  Returns the
/// runtime for post-run inspection via `out`.
struct DriverResult {
    RuntimeStats stats;
    Distribution final_dist;
    msg::Group final_active;
    bool data_ok = true;
};

DriverResult run_driver(msg::Machine& m, int rows, double row_cost,
                        int cycles, RuntimeOptions opts,
                        std::size_t row_elems = 16) {
    DriverResult result;
    m.run([&](msg::Rank& r) {
        Runtime rt(r, rows, opts);
        auto& A = rt.register_dense("A", static_cast<int>(row_elems),
                                    sizeof(double));
        int ph = rt.init_phase(
            0, rows, PhaseComm{CommPattern::NearestNeighbor,
                               row_elems * sizeof(double)});
        rt.add_array_access("A", AccessMode::Write, ph, 1, 0);
        rt.add_array_access("A", AccessMode::Read, ph, 1, -1);
        rt.add_array_access("A", AccessMode::Read, ph, 1, +1);
        rt.commit_setup();

        // Author the initial data: every owned row gets f(row).
        for (int row : rt.my_iters(ph).to_vector())
            for (std::size_t j = 0; j < row_elems; ++j)
                A.at<double>(row, static_cast<int>(j)) = row * 100.0 + (double)j;

        for (int c = 0; c < cycles; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                RowSet iters = rt.my_iters(ph);
                std::vector<double> costs(
                    static_cast<std::size_t>(iters.count()), row_cost);
                rt.run_phase(ph, costs);
                // Halo exchange with relative neighbors.
                int rel = rt.rel_rank(), n = rt.num_active();
                std::vector<double> row_buf(row_elems);
                if (rel > 0)
                    rt.send_rel(rel - 1, 1,
                                A.row_data(rt.start_iter(ph)),
                                row_elems * sizeof(double));
                if (rel < n - 1)
                    rt.send_rel(rel + 1, 2, A.row_data(rt.end_iter(ph)),
                                row_elems * sizeof(double));
                if (rel < n - 1)
                    rt.recv_rel(rel + 1, 1, row_buf.data(),
                                row_elems * sizeof(double));
                if (rel > 0)
                    rt.recv_rel(rel - 1, 2, row_buf.data(),
                                row_elems * sizeof(double));
            }
            rt.end_cycle();
        }

        // Validate data integrity after any number of redistributions.
        for (int row : rt.my_iters(ph).to_vector())
            for (std::size_t j = 0; j < row_elems; ++j)
                if (A.at<double>(row, static_cast<int>(j)) !=
                    row * 100.0 + (double)j)
                    result.data_ok = false;

        if (r.id() == 0) {
            result.stats = rt.stats();
            result.final_dist = rt.distribution();
            result.final_active = rt.active_group();
        }
    });
    return result;
}

TEST(Runtime, StaysEvenWhenDedicated) {
    msg::Machine m(fast_cluster(4));
    auto res = run_driver(m, 64, 0.005, 20, fast_opts());
    EXPECT_EQ(res.stats.redistributions, 0);
    EXPECT_EQ(res.final_dist.counts(), (std::vector<int>{16, 16, 16, 16}));
    EXPECT_TRUE(res.data_ok);
}

TEST(Runtime, AdaptsToCompetingProcess) {
    msg::Machine m(fast_cluster(4));
    // CP lands on node 2 at t=1s and stays.
    m.cluster().add_load_interval(2, 1.0, -1.0);
    RuntimeOptions o = fast_opts();
    o.enable_removal = false;
    auto res = run_driver(m, 64, 0.02, 60, o);
    EXPECT_GE(res.stats.redistributions, 1);
    EXPECT_TRUE(res.data_ok);
    auto counts = res.final_dist.counts();
    ASSERT_EQ(counts.size(), 4u);
    // Loaded node gets materially fewer rows than unloaded peers.
    EXPECT_LT(counts[2], counts[0] - 2);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 64);
}

TEST(Runtime, NoAdaptBaselineNeverRedistributes) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(2, 1.0, -1.0);
    RuntimeOptions o = fast_opts();
    o.adapt = false;
    auto res = run_driver(m, 64, 0.02, 40, o);
    EXPECT_EQ(res.stats.redistributions, 0);
    EXPECT_EQ(res.final_dist.counts(), (std::vector<int>{16, 16, 16, 16}));
}

TEST(Runtime, AdaptationImprovesElapsedTime) {
    auto elapsed_with = [](bool adapt) {
        msg::Machine m(fast_cluster(4));
        m.cluster().add_load_interval(1, 1.0, -1.0, 2); // 2 CPs
        RuntimeOptions o;
        o.calibrate = false;
        o.adapt = adapt;
        o.enable_removal = false;
        run_driver(m, 64, 0.02, 80, o);
        return m.elapsed_seconds();
    };
    double t_adapt = elapsed_with(true);
    double t_static = elapsed_with(false);
    EXPECT_LT(t_adapt, 0.8 * t_static);
}

TEST(Runtime, RebalancesBackWhenLoadDisappears) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(3, 1.0, 6.0);
    RuntimeOptions o = fast_opts();
    o.enable_removal = false;
    auto res = run_driver(m, 64, 0.02, 120, o);
    EXPECT_GE(res.stats.redistributions, 2); // away and back
    auto counts = res.final_dist.counts();
    // After the CP dies, the distribution drifts back to near-even.
    for (int c : counts) EXPECT_NEAR(c, 16, 3);
    EXPECT_TRUE(res.data_ok);
}

TEST(Runtime, PhysicalRemovalDropsLoadedNode) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.3, -1.0, 5); // heavy load
    RuntimeOptions o = fast_opts();
    o.enable_removal = true;
    // Small compute, expensive comm (32 KB rows): removal-friendly regime.
    auto res = run_driver(m, 48, 0.0001, 400, o, /*row_elems=*/4096);
    EXPECT_GE(res.stats.physical_drops, 1);
    EXPECT_EQ(res.final_active.size(), 3);
    EXPECT_FALSE(res.final_active.contains(1));
    EXPECT_TRUE(res.data_ok);
}

TEST(Runtime, RemovalKeepsNodeWhenComputeDominates) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 1.0, -1.0, 1);
    RuntimeOptions o = fast_opts();
    o.enable_removal = true;
    auto res = run_driver(m, 64, 0.05, 80, o); // compute-heavy
    EXPECT_EQ(res.stats.physical_drops, 0);
    EXPECT_EQ(res.final_active.size(), 4);
}

TEST(Runtime, LogicalDropKeepsMinimumRows) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.3, -1.0, 5);
    RuntimeOptions o = fast_opts();
    o.drop_mode = DropMode::Logical;
    auto res = run_driver(m, 48, 0.0001, 400, o, /*row_elems=*/4096);
    EXPECT_GE(res.stats.logical_drops, 1);
    EXPECT_EQ(res.final_active.size(), 4); // still in the active set
    auto counts = res.final_dist.counts();
    EXPECT_GE(counts[1], 1);
    EXPECT_LE(counts[1], 2); // minimum assignment only
    EXPECT_TRUE(res.data_ok);
}

TEST(Runtime, DroppedNodeReturnsWhenLoadClears) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.3, 2.5, 5);
    RuntimeOptions o = fast_opts();
    o.enable_removal = true;
    auto res = run_driver(m, 48, 0.0001, 700, o, /*row_elems=*/4096);
    EXPECT_GE(res.stats.physical_drops, 1);
    EXPECT_GE(res.stats.readds, 1);
    EXPECT_EQ(res.final_active.size(), 4);
    EXPECT_TRUE(res.data_ok);
}

TEST(Runtime, DeterministicAcrossIdenticalRuns) {
    auto run_once = [] {
        msg::Machine m(fast_cluster(4));
        m.cluster().add_load_interval(2, 1.0, 5.0, 2);
        auto res = run_driver(m, 64, 0.01, 60, fast_opts());
        return std::make_pair(m.elapsed_seconds(), res.final_dist.counts());
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_DOUBLE_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(Runtime, SetupOrderEnforced) {
    msg::Machine m(fast_cluster(2));
    EXPECT_THROW(m.run([](msg::Rank& r) {
        Runtime rt(r, 16);
        rt.begin_cycle(); // before commit_setup
    }),
                 Error);
}

TEST(Runtime, RunPhaseCostAlignmentEnforced) {
    msg::Machine m(fast_cluster(2));
    EXPECT_THROW(m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 16, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.begin_cycle();
        rt.run_phase(ph, std::vector<double>(3, 0.1)); // wrong length
    }),
                 Error);
}

TEST(Runtime, CalibrationProducesPlausibleModel) {
    msg::Machine m(fast_cluster(2));
    m.run([](msg::Rank& r) {
        Runtime rt(r, 16); // calibrate = true by default
        rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        const CommCosts& c = rt.comm_costs();
        const sim::NetParams truth{}; // simulator ground truth
        EXPECT_NEAR(c.bandwidth_Bps, truth.bandwidth_Bps,
                    truth.bandwidth_Bps * 0.2);
        EXPECT_NEAR(c.cpu_per_msg_s, truth.cpu_per_msg_s,
                    truth.cpu_per_msg_s * 0.5 + 1e-5);
        EXPECT_GT(c.latency_s, 0.0);
        EXPECT_LT(c.latency_s, 5 * truth.latency_s);
    });
}

TEST(Runtime, AllreduceActiveSendOutReachesRemovedNodes) {
    msg::Machine m(fast_cluster(3));
    m.cluster().add_load_interval(2, 0.5, -1.0, 3);
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = true;
        Runtime rt(r, 24, o);
        rt.register_dense("A", 2, sizeof(double));
        int ph = rt.init_phase(
            0, 24, PhaseComm{CommPattern::NearestNeighbor, 16});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();

        double final_sum = -1;
        for (int c = 0; c < 150; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                std::vector<double> costs(
                    static_cast<std::size_t>(rt.my_iters(ph).count()),
                    0.0005);
                rt.run_phase(ph, costs);
            }
            // Every world rank calls this: active contribute, removed get
            // the result pushed (send-out).
            final_sum = rt.allreduce_active(
                rt.participating() ? 1.0 : 1000.0, msg::OpSum{});
            rt.end_cycle();
        }
        // After the drop, only active nodes contribute (sum == #active);
        // the removed node must still observe the same value.
        EXPECT_LT(final_sum, 100.0) << "removed node leaked into send-in";
        EXPECT_DOUBLE_EQ(final_sum,
                         static_cast<double>(rt.num_active()));
    });
}

TEST(Runtime, SparseArrayRedistributesWithRuntime) {
    msg::Machine m(fast_cluster(3));
    m.cluster().add_load_interval(0, 1.0, -1.0, 2);
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, 30, o);
        auto& S = rt.register_sparse("S", 50);
        int ph = rt.init_phase(0, 30, PhaseComm{CommPattern::AllGather, 64});
        rt.add_array_access("S", AccessMode::Write, ph);
        rt.commit_setup();

        for (int row : rt.my_iters(ph).to_vector()) {
            S.set(row, row % 50, row + 0.5);
            S.set(row, (row + 13) % 50, -1.0);
        }

        for (int c = 0; c < 60; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                std::vector<double> costs(
                    static_cast<std::size_t>(rt.my_iters(ph).count()), 0.01);
                rt.run_phase(ph, costs);
            }
            rt.end_cycle();
        }
        EXPECT_GE(rt.stats().redistributions, 1);
        for (int row : rt.my_iters(ph).to_vector()) {
            EXPECT_DOUBLE_EQ(S.get(row, row % 50), row + 0.5);
            EXPECT_EQ(S.row_nnz(row), row % 50 == (row + 13) % 50 ? 1 : 2);
        }
    });
}

TEST(Runtime, HistoryRecordsRedistributionCycles) {
    msg::Machine m(fast_cluster(2));
    m.cluster().add_load_interval(1, 1.0, -1.0);
    RuntimeOptions o = fast_opts();
    o.enable_removal = false;
    auto res = run_driver(m, 32, 0.02, 50, o);
    int redist_cycles = 0;
    for (const auto& rec : res.stats.history)
        if (rec.redistributed) ++redist_cycles;
    EXPECT_EQ(redist_cycles, res.stats.redistributions);
    EXPECT_EQ(static_cast<int>(res.stats.history.size()), 50);
    EXPECT_GT(res.stats.redist_wall_s, 0.0);
}

// ---- my_iters: built once per layout ----

/// Watches one rank's my_iters across a run.  After every cycle each
/// phase's set must equal the layout's own set clipped to the phase, and
/// while the layout holds it must be the very same object: the sets are
/// built once per layout, not on each call.
struct ItersProbe {
    int layouts = 0;       ///< layout changes seen, the first one included
    int held = 0;          ///< cycles whose layout matched the previous one
    bool removed = false;  ///< saw this rank outside the active set
    Distribution dist;
    int rel = -2;
    std::vector<const RowSet*> addrs;

    void check(Runtime& rt, const std::vector<RowInterval>& spans) {
        const int rel_now = rt.participating() ? rt.rel_rank() : -1;
        const bool same = !addrs.empty() && rel_now == rel &&
                          rt.distribution() == dist;
        layouts += same ? 0 : 1;
        held += same ? 1 : 0;
        addrs.resize(spans.size());
        for (std::size_t ph = 0; ph < spans.size(); ++ph) {
            const int p = static_cast<int>(ph);
            const RowSet& got = rt.my_iters(p);
            if (rel_now >= 0) {
                EXPECT_EQ(got, rt.distribution().iters_of(rel_now).clip(
                                   spans[ph].lo, spans[ph].hi));
            } else {
                removed = true;
                EXPECT_TRUE(got.empty());
                EXPECT_EQ(rt.start_iter(p), 0);
                EXPECT_EQ(rt.end_iter(p), -1);
            }
            if (same) {
                EXPECT_EQ(&got, addrs[ph]) << "phase " << ph;
            }
            addrs[ph] = &got;
        }
        dist = rt.distribution();
        rel = rel_now;
    }
};

/// A two-phase driver in the shape of the red/black SOR sweep (one phase
/// over every row, one over an inner span), with an ItersProbe per rank
/// checked after setup and after every cycle.  `after_cycle` runs on every
/// rank after each end_cycle.
std::vector<ItersProbe> run_probed(
    msg::Machine& m, int rows, int cycles, double row_cost,
    RuntimeOptions opts,
    const std::function<void(Runtime&, int)>& after_cycle = {}) {
    std::vector<ItersProbe> probes(
        static_cast<std::size_t>(m.cluster().size()));
    const std::vector<RowInterval> spans{{0, rows}, {2, rows - 3}};
    m.run([&](msg::Rank& r) {
        ItersProbe& probe = probes[static_cast<std::size_t>(r.id())];
        Runtime rt(r, rows, opts);
        rt.register_dense("A", 4, sizeof(double));
        for (const RowInterval& sp : spans) {
            int ph = rt.init_phase(sp.lo, sp.hi,
                                   PhaseComm{CommPattern::None, 0});
            rt.add_array_access("A", AccessMode::Write, ph);
        }
        rt.commit_setup();
        probe.check(rt, spans);
        for (int c = 0; c < cycles; ++c) {
            rt.begin_cycle();
            if (rt.participating())
                for (std::size_t ph = 0; ph < spans.size(); ++ph) {
                    const int p = static_cast<int>(ph);
                    rt.run_phase(p, std::vector<double>(
                                        static_cast<std::size_t>(
                                            rt.my_iters(p).count()),
                                        row_cost));
                }
            rt.end_cycle();
            if (after_cycle) after_cycle(rt, c);
            probe.check(rt, spans);
        }
    });
    return probes;
}

TEST(RuntimeIters, FollowCyclicToBlockAdaptation) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.5, -1.0, 2);
    RuntimeOptions o = fast_opts();
    o.enable_removal = false;
    o.initial_dist = Distribution::Kind::Cyclic;
    o.cyclic_block_size = 3;
    auto probes = run_probed(m, 64, 60, 5e-3, o);
    for (const ItersProbe& p : probes) {
        EXPECT_EQ(p.dist.kind(), Distribution::Kind::Block);
        EXPECT_GE(p.layouts, 2);  // the cyclic layout, then a block one
        EXPECT_GE(p.held, 40);
    }
}

TEST(RuntimeIters, FollowManualRedistribution) {
    msg::Machine m(fast_cluster(3));
    RuntimeOptions o = fast_opts();
    o.adapt = false;
    auto probes = run_probed(m, 30, 12, 1e-3, o, [](Runtime& rt, int c) {
        if (c == 3) rt.redistribute_manual({5, 20, 5});
        if (c == 7) rt.redistribute_manual({12, 6, 12});
    });
    for (const ItersProbe& p : probes) {
        EXPECT_EQ(p.layouts, 3);
        EXPECT_EQ(p.held, 10);
        EXPECT_EQ(p.dist.counts(), (std::vector<int>{12, 6, 12}));
    }
}

TEST(RuntimeIters, FollowForcedDrop) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.3, -1.0, 4);
    RuntimeOptions o = fast_opts();
    o.enable_removal = true;
    o.force_drop_loaded = true;
    auto probes = run_probed(m, 48, 300, 2e-4, o);
    EXPECT_TRUE(probes[1].removed);
    EXPECT_EQ(probes[1].rel, -1);
    EXPECT_GE(probes[1].layouts, 2);
    for (int r : {0, 2, 3}) EXPECT_FALSE(probes[(std::size_t)r].removed);
    EXPECT_EQ(probes[0].dist.parties(), 3);
}

TEST(RuntimeIters, FollowReplicatedCrashRepair) {
    msg::Machine m(fast_cluster(4));
    m.cluster().install_faults(
        sim::FaultPlan::parse("crash node=2 t=1.5\n"));
    RuntimeOptions o = fast_opts();
    o.replicate = true;
    int repairs = 0;
    auto probes = run_probed(m, 40, 40, 1e-2, o, [&](Runtime& rt, int) {
        if (rt.rank().id() == 0) repairs = rt.stats().crash_repairs;
    });
    EXPECT_EQ(repairs, 1);
    for (int r : {0, 1, 3}) {
        const ItersProbe& p = probes[(std::size_t)r];
        EXPECT_EQ(p.layouts, 2) << "rank " << r;
        EXPECT_EQ(p.dist.parties(), 3);
    }
}

}  // namespace
}  // namespace dynmpi
