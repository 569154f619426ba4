// Integration: the observability layer watching a real adaptation.  A
// scripted load spike drives Monitor -> Grace -> redistribute -> PostGrace,
// and the trace must show that story in order, byte-identically across two
// runs of the same scenario.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cluster_fixture.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "sim/fault_plan.hpp"
#include "sim/load_trace.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dynmpi {
namespace {

/// One scripted scenario: 4 nodes, a competing process lands on node 1 at
/// t = 0.5 s and stays.  Returns the JSONL trace; the registries are left
/// enabled for the caller to inspect and must be cleaned up via Observed.
std::string run_traced(int cycles) {
    support::trace().enable();
    support::metrics().reset();
    support::metrics().enable();

    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.5, -1.0, 2);
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        Runtime rt(r, 48, o);
        rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(0, 48, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int c = 0; c < cycles; ++c) {
            rt.begin_cycle();
            if (rt.participating())
                rt.run_phase(ph, std::vector<double>(
                                     static_cast<std::size_t>(
                                         rt.my_iters(ph).count()),
                                     5e-3));
            rt.end_cycle();
        }
    });
    return support::trace().jsonl();
}

/// RAII guard: the trace sink and metrics registry are process-global, so
/// every test must leave them disabled and empty for the rest of the suite.
struct Observed {
    ~Observed() {
        support::trace().disable();
        support::trace().clear();
        support::metrics().disable();
        support::metrics().reset();
    }
};

int first_index(const std::vector<support::TraceEvent>& evs,
                const std::string& name, int rank) {
    for (std::size_t i = 0; i < evs.size(); ++i)
        if (evs[i].name == name && evs[i].rank == rank)
            return static_cast<int>(i);
    return -1;
}

TEST(TraceRuntime, AdaptationStoryInOrder) {
    Observed guard;
    run_traced(60);
    auto evs = support::trace().sorted_events();
    ASSERT_FALSE(evs.empty());

    int load_change = first_index(evs, "runtime.load_change", 0);
    int grace_enter = first_index(evs, "runtime.grace_enter", 0);
    int decision = first_index(evs, "balancer.decision", 0);
    int redistributed = first_index(evs, "runtime.redistributed", 0);
    int redist_apply = first_index(evs, "redist.apply", 0);
    int post_enter = first_index(evs, "runtime.post_grace_enter", 0);
    int post_exit = first_index(evs, "runtime.post_grace_exit", 0);

    ASSERT_GE(load_change, 0);
    ASSERT_GE(grace_enter, 0);
    ASSERT_GE(decision, 0);
    ASSERT_GE(redistributed, 0);
    ASSERT_GE(redist_apply, 0);
    ASSERT_GE(post_enter, 0);
    ASSERT_GE(post_exit, 0);

    EXPECT_LT(load_change, grace_enter);
    EXPECT_LT(grace_enter, decision);
    EXPECT_LT(decision, redistributed);
    EXPECT_LT(redistributed, post_enter);
    EXPECT_LT(post_enter, post_exit);

    // The redistribution phases appear on rank 0 too.
    EXPECT_GE(first_index(evs, "redist.pack", 0), 0);
    EXPECT_GE(first_index(evs, "redist.unpack", 0), 0);

    // Per-cycle spans cover every cycle of every rank; the machine summary
    // event closes the trace at rank -1.
    int cycles_seen = 0;
    for (const auto& e : evs)
        if (e.name == "runtime.cycle" && e.rank == 0) ++cycles_seen;
    EXPECT_EQ(cycles_seen, 60);
    EXPECT_GE(first_index(evs, "machine.run_end", -1), 0);
}

TEST(TraceRuntime, ByteIdenticalAcrossRuns) {
    Observed guard;
    std::string a = run_traced(60);
    std::string b = run_traced(60);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(TraceRuntime, MetricsMatchTheTrace) {
    Observed guard;
    run_traced(60);
    auto& mx = support::metrics();
    using support::CounterId;
    using support::GaugeId;
    using support::HistogramId;

    // Run-level metrics are rank-0-gated.
    EXPECT_EQ(mx.counter(CounterId::RuntimeCycles).value(), 60u);
    EXPECT_GE(mx.counter(CounterId::RuntimeLoadChanges).value(), 1u);
    EXPECT_GE(mx.counter(CounterId::RuntimeRedistributions).value(), 1u);
    EXPECT_EQ(mx.histogram(HistogramId::RuntimeCycleWallS).count(), 60u);

    // Cluster-wide transfer totals aggregate over all ranks.
    EXPECT_GT(mx.counter(CounterId::RedistRowsMoved).value(), 0u);
    EXPECT_GT(mx.counter(CounterId::RedistBytes).value(), 0u);
    EXPECT_GT(mx.counter(CounterId::BalancerCalls).value(), 0u);

    // Machine/engine summary instruments.
    EXPECT_EQ(mx.counter(CounterId::MachineRuns).value(), 1u);
    EXPECT_GT(mx.counter(CounterId::SimEventsFired).value(), 0u);
    EXPECT_GT(mx.gauge(GaugeId::MachineElapsedS).value(), 0.0);
    EXPECT_GT(mx.gauge(GaugeId::SimPeakPendingEvents).value(), 0.0);

    // Snapshots of the same registry are deterministic.
    EXPECT_EQ(mx.snapshot_json(), mx.snapshot_json());
}

/// A metered 4-node run under a competing-load trace and a fault script:
/// `reporter`'s stats, with the metrics registry left enabled for the
/// caller (clean up via Observed).
RuntimeStats run_metered(const std::string& load, const std::string& faults,
                         const RuntimeOptions& opts, int cycles,
                         int reporter) {
    support::metrics().reset();
    support::metrics().enable();
    sim::ClusterConfig c = fast_cluster(4);
    c.seed = 7;
    msg::Machine m(c);
    if (!load.empty()) sim::apply_load_trace(m.cluster(), load);
    if (!faults.empty())
        m.cluster().install_faults(sim::FaultPlan::parse(faults));
    RuntimeStats out;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o = opts;
        o.calibrate = false;
        Runtime rt(r, 48, o);
        rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(0, 48, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int cyc = 0; cyc < cycles; ++cyc) {
            rt.begin_cycle();
            if (rt.participating())
                rt.run_phase(ph, std::vector<double>(
                                     static_cast<std::size_t>(
                                         rt.my_iters(ph).count()),
                                     8e-3));
            rt.end_cycle();
        }
        if (r.id() == reporter) out = rt.stats();
    });
    return out;
}

// A kind that one rank records counts on that rank: a drop and re-add run
// counts the re-add once, on the rejoining node, and it matches the leader's
// (rank 0's) own count of the nodes it re-added.
TEST(TraceRuntime, ReaddsCountOnTheRejoiningRank) {
    Observed guard;
    RuntimeOptions o;
    o.force_drop_loaded = true;
    const RuntimeStats s =
        run_metered("node 1: 0.3 8.0 x5\n", "", o, 150, /*reporter=*/0);
    EXPECT_EQ(s.physical_drops, 1);
    EXPECT_EQ(s.readds, 1);
    auto& mx = support::metrics();
    using support::CounterId;
    EXPECT_EQ(mx.counter(CounterId::RuntimeReadds).value(),
              static_cast<std::uint64_t>(s.readds));
    EXPECT_EQ(mx.counter(CounterId::RuntimeDropsPhysical).value(), 1u);
}

// Buddy replication meters the bytes it ships and, after a crash, the rows
// it restores: node 2's 12 rows, all refilled from its live buddy.
TEST(TraceRuntime, ReplicationMetersBytesAndRestoredRows) {
    Observed guard;
    RuntimeOptions o;
    o.replicate = true;
    const RuntimeStats s =
        run_metered("", "crash node=2 t=1.5\n", o, 40, /*reporter=*/0);
    EXPECT_EQ(s.crash_repairs, 1);
    auto& mx = support::metrics();
    using support::CounterId;
    EXPECT_GE(mx.counter(CounterId::RuntimeReplicaBytes).value(),
              s.replica_bytes);
    EXPECT_GT(s.replica_bytes, 0u);
    EXPECT_EQ(mx.counter(CounterId::RuntimeRestoredRows).value(), 12u);
}

// Run-level metrics and quarantine decisions count on the leader, also
// when the leader is not world rank 0 (node 0 crashed first, so node 1
// leads): every cycle and the crash are counted once.
TEST(TraceRuntime, QuarantinesCountOnTheLeader) {
    Observed guard;
    RuntimeOptions o;
    o.grace_cycles = 3;
    const RuntimeStats s = run_metered(
        "", "crash node=0 t=0.5\ndrop-reports node=2 t=1 dur=6\n", o, 140,
        /*reporter=*/1);
    EXPECT_GE(s.quarantines, 1);
    EXPECT_GE(s.quarantine_readmits, 1);
    auto& mx = support::metrics();
    using support::CounterId;
    EXPECT_EQ(mx.counter(CounterId::RuntimeQuarantines).value(),
              static_cast<std::uint64_t>(s.quarantines));
    EXPECT_EQ(mx.counter(CounterId::RuntimeReadmits).value(),
              static_cast<std::uint64_t>(s.quarantine_readmits));
    EXPECT_EQ(mx.counter(CounterId::RuntimeCycles).value(), 140u);
    EXPECT_EQ(mx.histogram(support::HistogramId::RuntimeCycleWallS).count(),
              140u);
    EXPECT_EQ(mx.counter(CounterId::RuntimeCrashes).value(), 1u);
}

TEST(TraceRuntime, QuietRunStaysQuiet) {
    Observed guard;
    support::trace().enable();
    msg::Machine m(fast_cluster(2));
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 16, o);
        rt.register_dense("A", 2, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int c = 0; c < 10; ++c) {
            rt.begin_cycle();
            if (rt.participating())
                rt.run_phase(ph, std::vector<double>(
                                     static_cast<std::size_t>(
                                         rt.my_iters(ph).count()),
                                     1e-3));
            rt.end_cycle();
        }
    });
    auto evs = support::trace().sorted_events();
    for (const auto& e : evs) {
        EXPECT_NE(e.name, "runtime.grace_enter");
        EXPECT_NE(e.name, "runtime.redistributed");
        EXPECT_NE(e.name, "redist.apply");
    }
    // Cycle spans still cover the run.
    EXPECT_GE(first_index(evs, "runtime.cycle", 0), 0);
}

}  // namespace
}  // namespace dynmpi
