// Runtime hardening under injected faults: crashes mid-run, stale and
// dropped load reports, quarantine/readmit, and transient send failures.
// The chaos invariants must hold through every fault class — every row
// owned exactly once, data intact, block counts covering the row space —
// and identical seed + script must give identical runs.
#include <gtest/gtest.h>

#include <numeric>
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

struct FaultParams {
    int nodes = 4;
    int rows = 48;
    int cycles = 60;
    double row_cost = 4e-3;
    std::string script;
    std::string load; ///< competing-process trace (sim/load_trace.hpp)
    RuntimeOptions opts;
    int collector = 0; ///< rank that reports the outcome (never crash it)
};

struct FaultOutcome {
    bool data_ok = true;
    double checksum = 0;
    int crash_repairs = 0;
    int quarantines = 0;
    int readmits = 0;
    int stale_fallbacks = 0;
    int readds = 0;
    int physical_drops = 0;
    std::vector<int> final_counts;
    double elapsed = 0;
    std::uint64_t send_failures = 0;
    // Replication / rejoin observables (summed or maxed over all ranks).
    double recovered_sum = 0; ///< rows handed out via take_recovered_rows()
    double restored_sum = 0;  ///< rows refilled from buddy replicas
    double lost_sum = 0;      ///< rows the restore protocol reported lost
    double rejoins_max = 0;
    int final_active = 0;
    std::uint64_t replica_bytes = 0;
    std::uint64_t runtime_messages = 0; ///< Machine::traffic(), runtime class
    std::uint64_t runtime_bytes = 0;
    std::uint64_t control_messages = 0; ///< control plane (status, bootstrap)
    std::uint64_t control_bytes = 0;
};

FaultOutcome run_with_faults(const FaultParams& fp) {
    sim::ClusterConfig cc = fast_cluster(fp.nodes);
    cc.seed = 7;
    msg::Machine m(cc);
    if (!fp.script.empty())
        m.cluster().install_faults(sim::FaultPlan::parse(fp.script));
    if (!fp.load.empty()) sim::apply_load_trace(m.cluster(), fp.load);

    FaultOutcome out;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o = fp.opts;
        o.calibrate = false;
        Runtime rt(r, fp.rows, o);
        auto& A = rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(
            0, fp.rows, PhaseComm{CommPattern::NearestNeighbor, 32});
        rt.add_array_access("A", AccessMode::Write, ph, 1, 0);
        rt.add_array_access("A", AccessMode::Read, ph, 1, -1);
        rt.add_array_access("A", AccessMode::Read, ph, 1, +1);
        rt.commit_setup();

        auto fill = [&](const std::vector<int>& rows) {
            for (int row : rows)
                for (int j = 0; j < 4; ++j)
                    A.at<double>(row, j) = row * 7.0 + j;
        };
        fill(rt.my_iters(ph).to_vector());

        int recovered = 0;
        // A revived rank re-enters here with stats().cycles already set to
        // the cycle it must pick up the status channel from.
        for (int c = rt.stats().cycles; c < fp.cycles; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                std::vector<double> costs(
                    static_cast<std::size_t>(rt.my_iters(ph).count()),
                    fp.row_cost);
                rt.run_phase(ph, costs);
            }
            rt.end_cycle();
            // Rows the runtime could not restore arrive zero-filled; the
            // application regenerates them (checkpointless recovery).  With
            // replication on this only fires for double-crash losses.
            RowSet lost = rt.take_recovered_rows();
            recovered += lost.count();
            fill(lost.to_vector());
        }

        bool ok = true;
        for (int row : rt.my_iters(ph).to_vector())
            for (int j = 0; j < 4; ++j)
                if (A.at<double>(row, j) != row * 7.0 + j) ok = false;
        double local = 0;
        for (int row : rt.my_iters(ph).to_vector())
            local += A.at<double>(row, 0);
        double sum = rt.allreduce_active(local, msg::OpSum{});
        double lost_rows = 0;
        for (const RestoreRecord& rr : rt.stats().restores)
            lost_rows += rr.lost;
        double restored =
            rt.allreduce_active(static_cast<double>(rt.stats().restored_rows),
                                msg::OpSum{});
        double recovered_all = rt.allreduce_active(
            static_cast<double>(recovered), msg::OpSum{});
        double lost_all = rt.allreduce_active(lost_rows, msg::OpSum{});
        double rejoins = rt.allreduce_active(
            static_cast<double>(rt.stats().rejoins), msg::OpMax{});
        if (r.id() == fp.collector) {
            out.data_ok = ok;
            out.checksum = sum;
            out.crash_repairs = rt.stats().crash_repairs;
            out.quarantines = rt.stats().quarantines;
            out.readmits = rt.stats().quarantine_readmits;
            out.stale_fallbacks = rt.stats().stale_fallbacks;
            out.readds = rt.stats().readds;
            out.physical_drops = rt.stats().physical_drops;
            out.final_counts = rt.distribution().counts();
            out.recovered_sum = recovered_all;
            out.restored_sum = restored;
            out.lost_sum = lost_all;
            out.rejoins_max = rejoins;
            out.final_active = rt.num_active();
            out.replica_bytes = rt.stats().replica_bytes;
        } else if (!ok) {
            throw Error("data corrupted on rank " + std::to_string(r.id()));
        }
    });
    out.elapsed = m.elapsed_seconds();
    const auto runtime = static_cast<std::size_t>(msg::TagSpace::Runtime);
    out.runtime_messages = m.traffic().messages[runtime];
    out.runtime_bytes = m.traffic().bytes[runtime];
    out.control_messages = m.traffic().control_messages;
    out.control_bytes = m.traffic().control_bytes;
    out.send_failures = m.cluster().network().send_failures();
    return out;
}

double expected_checksum(int rows) {
    double e = 0;
    for (int row = 0; row < rows; ++row) e += row * 7.0;
    return e;
}

// The headline acceptance scenario: 8 nodes, one crashes mid-run, the run
// completes with every row owned exactly once and data intact.
TEST(FaultRecovery, CrashMidRunEightNodes) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=5 t=1.5\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              fp.rows);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

TEST(FaultRecovery, TwoCrashesStillRecover) {
    FaultParams fp;
    fp.nodes = 6;
    fp.rows = 72;
    fp.cycles = 80;
    fp.script =
        "crash node=3 t=1.2\n"
        "crash node=5 t=3.7\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 2);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// The leader (node 0) is not special: recovery elects the next survivor.
TEST(FaultRecovery, LeaderCrash) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 60;
    fp.script = "crash node=0 t=2\n";
    fp.collector = 1;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Same seed + same script => identical runs (virtual time included).
TEST(FaultRecovery, DeterministicUnderFaults) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 50;
    fp.script =
        "crash node=6 t=1.1\n"
        "slow node=2 t=0.7 dur=2 factor=0.5\n"
        "net-delay t=2 dur=1 extra=0.002\n";
    FaultOutcome a = run_with_faults(fp);
    FaultOutcome b = run_with_faults(fp);
    EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.final_counts, b.final_counts);
    EXPECT_EQ(a.crash_repairs, b.crash_repairs);
}

// Byte-identical JSONL trace across two runs of the same faulty scenario.
TEST(FaultRecovery, TraceIsByteIdenticalAcrossRuns) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 40;
    fp.script = "crash node=5 t=1.5\n";
    std::string traces[2];
    for (std::string& t : traces) {
        support::trace().enable();
        run_with_faults(fp);
        t = support::trace().jsonl();
        support::trace().disable();
        support::trace().clear();
    }
    ASSERT_FALSE(traces[0].empty());
    EXPECT_EQ(traces[0], traces[1]);
    EXPECT_NE(traces[0].find("fault.inject"), std::string::npos);
    EXPECT_NE(traces[0].find("runtime.crash_repair"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Buddy replication: crashes lose zero row data
// ---------------------------------------------------------------------------

// The tentpole acceptance scenario: with replication on, a single mid-run
// crash loses no data.  The adopter's rows are refilled from the buddy —
// bitwise, since the fill pattern is exact in doubles — and the application
// never sees a zero-filled recovered row.
TEST(FaultRecovery, ReplicationCrashLosesNoData) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=5 t=1.5\n";
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_DOUBLE_EQ(out.recovered_sum, 0.0); // nothing was zero-filled
    EXPECT_GT(out.restored_sum, 0.0);
    EXPECT_DOUBLE_EQ(out.lost_sum, 0.0);
    EXPECT_GT(out.replica_bytes, 0u);
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              fp.rows);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Exact gate on replication traffic: the wire format of replica and restore
// blobs and the virtual time they cost are pinned, so a change to how the
// buddy stores or re-packs its copies cannot move a byte or a tick unseen.
TEST(FaultRecovery, ReplicationTrafficIsExact) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=5 t=1.5\n";
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_EQ(out.crash_repairs, 1);
    EXPECT_EQ(out.replica_bytes, 1292u); // shipped by rank 0
    EXPECT_EQ(out.restored_sum, 12.0);   // restored_rows over all ranks
    EXPECT_EQ(out.runtime_messages, 444u);
    EXPECT_EQ(out.runtime_bytes, 10752u);
    EXPECT_EQ(out.elapsed, 0x1.14259ece3f713p+2);
}

// Exact gate on control traffic: the per-cycle status channel (steady
// heartbeats to a removed node, then the re-add instruction) and the
// leader's bootstrap of a revived node are pinned by message count, bytes
// and virtual time, so a change to how either is encoded cannot move a byte
// or a tick unseen.
TEST(FaultRecovery, ControlTrafficIsExact) {
    FaultParams drop;
    drop.cycles = 90;
    drop.load = "node 1: 0.3 4.0 x5\n";
    drop.opts.force_drop_loaded = true;
    FaultOutcome d = run_with_faults(drop);
    EXPECT_TRUE(d.data_ok);
    EXPECT_EQ(d.physical_drops, 1);
    EXPECT_EQ(d.readds, 1);
    EXPECT_EQ(d.final_active, drop.nodes);
    EXPECT_EQ(d.runtime_messages, 9u);
    EXPECT_EQ(d.runtime_bytes, 1840u);
    EXPECT_EQ(d.control_messages, 536u);
    EXPECT_EQ(d.control_bytes, 16936u);
    EXPECT_EQ(d.elapsed, 0x1.9e733a5044215p+2);

    FaultParams revive;
    revive.nodes = 8;
    revive.rows = 96;
    revive.cycles = 90;
    revive.script =
        "crash node=5 t=1.5\n"
        "revive node=5 t=2.5\n";
    revive.opts.replicate = true;
    FaultOutcome r = run_with_faults(revive);
    EXPECT_TRUE(r.data_ok);
    EXPECT_EQ(r.rejoins_max, 1.0);
    EXPECT_EQ(r.final_active, revive.nodes);
    EXPECT_EQ(r.runtime_messages, 717u);
    EXPECT_EQ(r.runtime_bytes, 17168u);
    EXPECT_EQ(r.control_messages, 1263u);
    EXPECT_EQ(r.control_bytes, 39504u);
    EXPECT_EQ(r.elapsed, 0x1.4d32ba14c1e19p+2);
}

// Identical contents to a fault-free run: both runs end with every element
// equal to the generator value, which the per-element data_ok check asserts
// bitwise on every rank.  Here the crash hits the replication leader.
TEST(FaultRecovery, ReplicationLeaderCrashLosesNoData) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=0 t=1.5\n";
    fp.collector = 1;
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_DOUBLE_EQ(out.recovered_sum, 0.0);
    EXPECT_GT(out.restored_sum, 0.0);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Owner and buddy die inside one refresh interval: the copies died with the
// buddy, so those rows come back zero-filled through the diagnostics-only
// take_recovered_rows() escape hatch and the application regenerates them.
TEST(FaultRecovery, DoubleCrashFallsBackToZeroFill) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script =
        "crash node=3 t=1.5\n"
        "crash node=4 t=1.5\n";
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 2);
    // Node 3's buddy (node 4) died with it: its rows are lost and refilled
    // by the app.  Node 4's buddy (node 5) survived: its rows are restored.
    EXPECT_GT(out.recovered_sum, 0.0);
    EXPECT_GT(out.lost_sum, 0.0);
    EXPECT_GT(out.restored_sum, 0.0);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// A node dropped for its load is a removed follower when the leader
// crashes: it repairs its own view of the active set to find the new
// leader's status channel, and that leader re-adds it once the load clears.
TEST(FaultRecovery, RemovedNodeFollowsANewLeader) {
    FaultParams fp;
    fp.cycles = 90;
    fp.load = "node 1: 0.3 4.0 x5\n"; // dropped at t = 2.7
    fp.script = "crash node=0 t=3.2\n";
    fp.opts.force_drop_loaded = true;
    fp.collector = 2;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_EQ(out.physical_drops, 1);
    EXPECT_EQ(out.crash_repairs, 1);
    EXPECT_EQ(out.readds, 1);
    EXPECT_EQ(out.final_active, 3);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// ---------------------------------------------------------------------------
// Node rejoin: crash + revive closes the shrink/grow loop
// ---------------------------------------------------------------------------

// A crashed node restarts, is readmitted through the epoch-revocation
// protocol, and the balancer hands it rows again: world size grows back and
// every row stays owned exactly once.
TEST(FaultRecovery, CrashThenReviveRestoresWorldSize) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 90;
    fp.script =
        "crash node=5 t=1.5\n"
        "revive node=5 t=2.5\n";
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_GE(out.rejoins_max, 1.0);
    EXPECT_GE(out.readds, 1);
    EXPECT_EQ(out.final_active, fp.nodes); // world size restored
    EXPECT_EQ(static_cast<int>(out.final_counts.size()), fp.nodes);
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              fp.rows);
    EXPECT_DOUBLE_EQ(out.recovered_sum, 0.0);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Rejoin also works without replication: the revived node receives its new
// block through the normal redistribution, which ships actual contents.
TEST(FaultRecovery, CrashThenReviveWithoutReplication) {
    FaultParams fp;
    fp.nodes = 6;
    fp.rows = 72;
    fp.cycles = 90;
    fp.script =
        "crash node=3 t=1.5\n"
        "revive node=3 t=2.5\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.rejoins_max, 1.0);
    EXPECT_EQ(out.final_active, fp.nodes);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// A second crash while the revived node waits for its bootstrap revokes
// that wait; the node waits again, and the leader's bootstrap still brings
// it back.
TEST(FaultRecovery, CrashDuringBootstrapWaitStillRejoins) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 90;
    fp.script =
        "crash node=5 t=1.5\n"
        "revive node=5 t=2.5\n"
        "crash node=3 t=2.502\n";
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_EQ(out.crash_repairs, 2);
    EXPECT_EQ(out.rejoins_max, 1.0);
    EXPECT_EQ(out.final_active, fp.nodes - 1); // node 3 stays down
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Determinism must survive the full crash/restore/rejoin machinery:
// identical seed + script still yields a byte-identical trace.
TEST(FaultRecovery, ReviveTraceIsByteIdenticalAcrossRuns) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 80;
    fp.script =
        "crash node=5 t=1.5\n"
        "revive node=5 t=2.5\n";
    fp.opts.replicate = true;
    std::string traces[2];
    for (std::string& t : traces) {
        support::trace().enable();
        run_with_faults(fp);
        t = support::trace().jsonl();
        support::trace().disable();
        support::trace().clear();
    }
    ASSERT_FALSE(traces[0].empty());
    EXPECT_EQ(traces[0], traces[1]);
    EXPECT_NE(traces[0].find("runtime.replica_refresh"), std::string::npos);
    EXPECT_NE(traces[0].find("runtime.replica_restore"), std::string::npos);
    EXPECT_NE(traces[0].find("runtime.rejoin"), std::string::npos);
}

// A daemon that stops publishing makes its reports stale; the leader falls
// back to the baseline load instead of acting on garbage.
TEST(FaultRecovery, StaleReportsFallBack) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 80;
    fp.row_cost = 8e-3;
    fp.script = "drop-reports node=1 t=1\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GT(out.stale_fallbacks, 0);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// The fallback is visible in the trace: the leader emits one
// runtime.stale_report per stale node and cycle, naming the node and the
// report's age.
TEST(FaultRecovery, StaleReportsAreTraced) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 80;
    fp.row_cost = 8e-3;
    fp.script = "drop-reports node=1 t=1\n";
    support::trace().enable();
    FaultOutcome out = run_with_faults(fp);
    const auto evs = support::trace().sorted_events();
    support::trace().disable();
    support::trace().clear();
    int stale = 0;
    for (const auto& e : evs) {
        if (e.name != "runtime.stale_report") continue;
        ++stale;
        EXPECT_EQ(e.rank, 0); // the leader
        ASSERT_EQ(e.args.size(), 3u);
        EXPECT_EQ(e.args[1].key, "node");
        EXPECT_EQ(e.args[1].value, "1");
        EXPECT_EQ(e.args[2].key, "age_s");
        EXPECT_GT(std::stod(e.args[2].value), Runtime::kReportStalenessS);
    }
    EXPECT_GT(stale, 0);
    EXPECT_EQ(stale, out.stale_fallbacks);
}

// K consecutive bad reports quarantine the node (logically dropped from the
// candidate set); a clean grace period readmits it.
TEST(FaultRecovery, QuarantineAndReadmit) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 140;
    fp.row_cost = 8e-3;
    // Reports go stale Runtime::kReportStalenessS into the 6 s gap, which
    // leaves far more than AdaptPolicy::kQuarantineBadReports stale cycles.
    fp.script = "drop-reports node=1 t=1 dur=6\n";
    fp.opts.grace_cycles = 3;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.quarantines, 1);
    EXPECT_GE(out.readmits, 1);
    EXPECT_GE(out.readds, 1); // the node physically rejoined
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Transient send failures are absorbed by bounded retry with backoff: the
// doomed attempts are counted, traced (one net.send_retry per attempt) and
// metered (net.send_retries), and no data is lost.
TEST(FaultRecovery, MessageLossRetries) {
    sim::ClusterConfig cc;
    cc.num_nodes = 2;
    cc.seed = 7;
    msg::Machine m(cc);
    m.cluster().install_faults(
        sim::FaultPlan::parse("lose-sends node=1 t=0 count=3\n"));
    support::trace().enable();
    support::metrics().reset();
    support::metrics().enable();
    std::vector<double> got;
    m.run([&](msg::Rank& r) {
        if (r.id() == 1) {
            for (int i = 0; i < 5; ++i) {
                double v = 100.0 + i;
                r.send(0, 9, &v, sizeof v);
            }
        } else {
            for (int i = 0; i < 5; ++i) {
                double v = 0;
                r.recv(1, 9, &v, sizeof v);
                got.push_back(v);
            }
        }
    });
    const auto evs = support::trace().sorted_events();
    const std::uint64_t retries =
        support::metrics().counter(support::CounterId::NetSendRetries).value();
    support::trace().disable();
    support::trace().clear();
    support::metrics().disable();
    support::metrics().reset();
    std::vector<std::string> attempts;
    for (const auto& e : evs) {
        if (e.name != "net.send_retry") continue;
        EXPECT_EQ(e.rank, 1);
        attempts.push_back(e.args.back().value);
    }
    EXPECT_EQ(attempts, (std::vector<std::string>{"1", "2", "3"}));
    EXPECT_EQ(retries, 3u);
    EXPECT_EQ(m.cluster().network().send_failures(), 3u);
    ASSERT_EQ(got.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(got[(std::size_t)i], 100.0 + i);
}

// Frozen reports (stale value, fresh timestamp) are the documented blind
// spot of the staleness check — but the run must still complete correctly.
TEST(FaultRecovery, FrozenReportsDoNotBreakTheRun) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 60;
    fp.script = "freeze-reports node=2 t=0.5\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

}  // namespace
}  // namespace dynmpi
