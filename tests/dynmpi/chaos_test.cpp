// Randomized end-to-end stress: arbitrary load scripts, node counts, and
// cost profiles.  Whatever the adaptation sequence turns out to be, the
// invariants must hold:
//   - every row is owned by exactly one active node,
//   - data written once is intact wherever it lands,
//   - block counts always cover the row space,
//   - identical seeds give identical runs.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "sim/fault_plan.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

struct ChaosParams {
    int nodes;
    int rows;
    int cycles;
    std::uint64_t seed;
    std::string faults; ///< optional fault script injected into the run
    bool replicate = false; ///< buddy replication on every node
};

struct ChaosOutcome {
    bool data_ok = true;
    int redistributions = 0;
    int drops = 0;
    int readds = 0;
    std::vector<int> final_counts;
    double elapsed = 0;
    double checksum = 0;
    int restored_rows = 0;
    int zero_filled = 0;
};

ChaosOutcome run_chaos(const ChaosParams& cp) {
    Rng rng(cp.seed);
    sim::ClusterConfig cc;
    cc.num_nodes = cp.nodes;
    cc.seed = cp.seed;
    cc.ps_period = sim::from_seconds(0.25);
    msg::Machine m(cc);

    // Random load script: competing processes come and go on random nodes.
    int n_events = 2 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < n_events; ++e) {
        int node = static_cast<int>(rng.next_below((std::uint64_t)cp.nodes));
        double start = rng.uniform(0.2, 3.0);
        double end = rng.next_double() < 0.5 ? -1.0 : start + rng.uniform(1.0, 4.0);
        int count = 1 + static_cast<int>(rng.next_below(3));
        sim::BurstSpec spec;
        if (rng.next_double() < 0.3) {
            spec.period_s = rng.uniform(0.05, 0.4);
            spec.duty = rng.uniform(0.3, 0.9);
        }
        m.cluster().add_load_interval(node, start, end, count, spec);
    }

    if (!cp.faults.empty())
        m.cluster().install_faults(sim::FaultPlan::parse(cp.faults));

    double row_cost_base = rng.uniform(1e-3, 8e-3);
    ChaosOutcome out;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = true; // anything may happen
        o.replicate = cp.replicate;
        Runtime rt(r, cp.rows, o);
        auto& A = rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(
            0, cp.rows, PhaseComm{CommPattern::NearestNeighbor, 32});
        rt.add_array_access("A", AccessMode::Write, ph, 1, 0);
        rt.add_array_access("A", AccessMode::Read, ph, 1, -1);
        rt.add_array_access("A", AccessMode::Read, ph, 1, +1);
        rt.commit_setup();

        for (int row : rt.my_iters(ph).to_vector())
            for (int j = 0; j < 4; ++j)
                A.at<double>(row, j) = row * 7.0 + j;

        int zero_filled = 0;
        for (int c = 0; c < cp.cycles; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                std::vector<double> costs(
                    static_cast<std::size_t>(rt.my_iters(ph).count()),
                    row_cost_base);
                rt.run_phase(ph, costs);
            }
            rt.end_cycle();
            // Rows adopted after a crash without a usable replica arrive
            // zero-filled; regenerate them so the data-integrity invariant
            // stays checkable.  With replication and a live buddy this loop
            // must never run — the invariant below enforces that.
            for (int row : rt.take_recovered_rows().to_vector()) {
                ++zero_filled;
                for (int j = 0; j < 4; ++j)
                    A.at<double>(row, j) = row * 7.0 + j;
            }
        }

        // With replication on, a crash whose buddy survived and had at least
        // one refresh must restore every row: a zero-filled row slipping
        // through here is data loss the replica should have prevented.
        for (const auto& rec : rt.stats().restores)
            if (rec.buddy_alive && rec.refreshed && rec.lost > 0)
                throw Error("replica restore lost " +
                            std::to_string(rec.lost) + " rows of node " +
                            std::to_string(rec.node) +
                            " although buddy was alive (rank " +
                            std::to_string(r.id()) + ")");

        // Invariants.
        bool ok = true;
        for (int row : rt.my_iters(ph).to_vector())
            for (int j = 0; j < 4; ++j)
                if (A.at<double>(row, j) != row * 7.0 + j) ok = false;
        double local = 0;
        for (int row : rt.my_iters(ph).to_vector())
            local += A.at<double>(row, 0);
        double sum = rt.allreduce_active(local, msg::OpSum{});
        double restored = rt.allreduce_active(
            static_cast<double>(rt.stats().restored_rows), msg::OpSum{});
        double zf = rt.allreduce_active(static_cast<double>(zero_filled),
                                        msg::OpSum{});
        if (r.id() == 0) {
            out.data_ok = ok;
            out.checksum = sum;
            out.redistributions = rt.stats().redistributions;
            out.drops = rt.stats().physical_drops;
            out.readds = rt.stats().readds;
            out.final_counts = rt.distribution().counts();
            out.restored_rows = static_cast<int>(restored);
            out.zero_filled = static_cast<int>(zf);
        } else if (!ok) {
            throw Error("data corrupted on rank " + std::to_string(r.id()));
        }
    });
    out.elapsed = m.elapsed_seconds();
    return out;
}

class Chaos : public ::testing::TestWithParam<int> {};

TEST_P(Chaos, InvariantsSurviveRandomLoadHistory) {
    std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 0x9E37;
    Rng rng(seed);
    ChaosParams cp;
    cp.nodes = 2 + static_cast<int>(rng.next_below(6));
    cp.rows = cp.nodes * (8 + static_cast<int>(rng.next_below(24)));
    cp.cycles = 80 + static_cast<int>(rng.next_below(120));
    cp.seed = seed;

    ChaosOutcome out = run_chaos(cp);
    EXPECT_TRUE(out.data_ok) << "seed " << seed;
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              cp.rows)
        << "seed " << seed;
    // Checksum: sum over rows of row*7 (column 0), distribution-independent.
    double expect = 0;
    for (int row = 0; row < cp.rows; ++row) expect += row * 7.0;
    EXPECT_NEAR(out.checksum, expect, 1e-6) << "seed " << seed;
}

TEST_P(Chaos, DeterministicUnderSameSeed) {
    std::uint64_t seed = 77777 + static_cast<std::uint64_t>(GetParam());
    ChaosParams cp{4, 48, 100, seed, {}};
    ChaosOutcome a = run_chaos(cp);
    ChaosOutcome b = run_chaos(cp);
    EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.final_counts, b.final_counts);
    EXPECT_EQ(a.redistributions, b.redistributions);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.readds, b.readds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Chaos, ::testing::Range(1, 11));

/// Random fault script on top of the random load history: at most one crash
/// (never node 0, which collects results), plus report pathologies, send
/// loss, and latency spikes.
std::string random_fault_script(Rng& rng, int nodes, double horizon_s) {
    std::string s;
    auto node_not_zero = [&] {
        return 1 + static_cast<int>(
                       rng.next_below(static_cast<std::uint64_t>(nodes - 1)));
    };
    auto t = [&] { return rng.uniform(0.5, horizon_s); };
    if (nodes >= 3 && rng.next_double() < 0.7)
        s += "crash node=" + std::to_string(node_not_zero()) +
             " t=" + std::to_string(t()) + "\n";
    if (rng.next_double() < 0.5)
        s += "drop-reports node=" + std::to_string(node_not_zero()) +
             " t=" + std::to_string(t()) +
             " dur=" + std::to_string(rng.uniform(0.5, 2.0)) + "\n";
    if (rng.next_double() < 0.5)
        s += "lose-sends node=" + std::to_string(node_not_zero()) +
             " t=" + std::to_string(t()) + " count=" +
             std::to_string(1 + rng.next_below(3)) + "\n";
    if (rng.next_double() < 0.3)
        s += "net-delay t=" + std::to_string(t()) +
             " dur=" + std::to_string(rng.uniform(0.2, 1.0)) +
             " extra=" + std::to_string(rng.uniform(1e-4, 5e-3)) + "\n";
    return s;
}

class FaultChaos : public ::testing::TestWithParam<int> {};

TEST_P(FaultChaos, InvariantsSurviveRandomFaultScripts) {
    std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 0xC0FFEE;
    Rng rng(seed);
    ChaosParams cp;
    cp.nodes = 3 + static_cast<int>(rng.next_below(5));
    cp.rows = cp.nodes * (8 + static_cast<int>(rng.next_below(16)));
    cp.cycles = 60 + static_cast<int>(rng.next_below(60));
    cp.seed = seed;
    cp.faults = random_fault_script(rng, cp.nodes, 3.0);

    ChaosOutcome out = run_chaos(cp);
    EXPECT_TRUE(out.data_ok) << "seed " << seed << "\n" << cp.faults;
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              cp.rows)
        << "seed " << seed << "\n" << cp.faults;
    double expect = 0;
    for (int row = 0; row < cp.rows; ++row) expect += row * 7.0;
    EXPECT_NEAR(out.checksum, expect, 1e-6) << "seed " << seed << "\n"
                                            << cp.faults;
}

TEST_P(FaultChaos, DeterministicUnderSameSeedAndScript) {
    std::uint64_t seed = 424242 + static_cast<std::uint64_t>(GetParam());
    ChaosParams cp{5, 60, 70, seed,
                   "crash node=2 t=1.3\n"
                   "drop-reports node=3 t=0.8 dur=1.5\n"
                   "lose-sends node=1 t=0.5 count=2\n"};
    ChaosOutcome a = run_chaos(cp);
    ChaosOutcome b = run_chaos(cp);
    EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.final_counts, b.final_counts);
    EXPECT_EQ(a.redistributions, b.redistributions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultChaos, ::testing::Range(1, 11));

/// FaultChaos with buddy replication: the same random fault scripts, but any
/// crash whose buddy survived must lose zero row data — run_chaos throws if
/// a restore record shows loss while the buddy was alive, and the zero-fill
/// counter must stay at zero whenever rows were restored.
class ReplicatedFaultChaos : public ::testing::TestWithParam<int> {};

TEST_P(ReplicatedFaultChaos, CrashesLoseNoDataWhileBuddyAlive) {
    std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 0xBEEFED;
    Rng rng(seed);
    ChaosParams cp;
    cp.nodes = 3 + static_cast<int>(rng.next_below(5));
    cp.rows = cp.nodes * (8 + static_cast<int>(rng.next_below(16)));
    cp.cycles = 60 + static_cast<int>(rng.next_below(60));
    cp.seed = seed;
    cp.faults = random_fault_script(rng, cp.nodes, 3.0);
    cp.replicate = true;

    ChaosOutcome out = run_chaos(cp);
    EXPECT_TRUE(out.data_ok) << "seed " << seed << "\n" << cp.faults;
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              cp.rows)
        << "seed " << seed << "\n" << cp.faults;
    double expect = 0;
    for (int row = 0; row < cp.rows; ++row) expect += row * 7.0;
    EXPECT_NEAR(out.checksum, expect, 1e-6) << "seed " << seed << "\n"
                                            << cp.faults;
    // A single crash with replication never zero-fills: either the buddy
    // restores everything, or nothing crashed and there is nothing to fill.
    EXPECT_EQ(out.zero_filled, 0) << "seed " << seed << "\n" << cp.faults;
}

TEST_P(ReplicatedFaultChaos, DeterministicUnderSameSeedAndScript) {
    std::uint64_t seed = 515151 + static_cast<std::uint64_t>(GetParam());
    ChaosParams cp{5, 60, 70, seed,
                   "crash node=2 t=1.3\n"
                   "drop-reports node=3 t=0.8 dur=1.5\n"
                   "lose-sends node=1 t=0.5 count=2\n",
                   /*replicate=*/true};
    ChaosOutcome a = run_chaos(cp);
    ChaosOutcome b = run_chaos(cp);
    EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.final_counts, b.final_counts);
    EXPECT_EQ(a.redistributions, b.redistributions);
    EXPECT_EQ(a.restored_rows, b.restored_rows);
    EXPECT_EQ(a.zero_filled, 0);
    EXPECT_EQ(b.zero_filled, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatedFaultChaos,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace dynmpi
