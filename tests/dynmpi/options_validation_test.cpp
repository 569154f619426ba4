// RuntimeOptions and setup validation: every misuse has a clear error.
#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

template <typename Fn>
void expect_rank_error(int nodes, Fn fn) {
    msg::Machine m(quiet_cluster(nodes));
    EXPECT_THROW(m.run(fn), Error);
}

TEST(OptionsValidation, NonPositiveRowSpaceRejected) {
    expect_rank_error(1, [](msg::Rank& r) { Runtime rt(r, 0); });
}

TEST(OptionsValidation, ZeroGraceCyclesRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        RuntimeOptions o;
        o.grace_cycles = 0;
        Runtime rt(r, 8, o);
    });
}

TEST(OptionsValidation, PhaseOutsideRowSpaceRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        Runtime rt(r, 8);
        rt.init_phase(0, 9, PhaseComm{CommPattern::None, 0});
    });
}

TEST(OptionsValidation, EmptyPhaseRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        Runtime rt(r, 8);
        rt.init_phase(4, 4, PhaseComm{CommPattern::None, 0});
    });
}

TEST(OptionsValidation, AccessOnUnknownPhaseRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        Runtime rt(r, 8);
        rt.register_dense("A", 1, sizeof(double));
        rt.add_array_access("A", AccessMode::Write, 3);
    });
}

TEST(OptionsValidation, AccessOnUnknownArrayRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        Runtime rt(r, 8);
        rt.init_phase(0, 8, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("ghost", AccessMode::Write, 0);
    });
}

TEST(OptionsValidation, CommitWithoutPhaseRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        Runtime rt(r, 8);
        rt.register_dense("A", 1, sizeof(double));
        rt.commit_setup();
    });
}

TEST(OptionsValidation, EndCycleWithoutBeginRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 8, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 8, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.end_cycle();
    });
}

TEST(OptionsValidation, DoubleBeginCycleRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 8, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 8, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.begin_cycle();
        rt.begin_cycle();
    });
}

TEST(OptionsValidation, ReplicaRefreshShorterThanMonitoringRejected) {
    // The monitoring period is the fastest the refresh can physically run;
    // asking for a shorter interval is a configuration error, not a silent
    // clamp.
    expect_rank_error(2, [](msg::Rank& r) {
        RuntimeOptions o;
        o.replicate = true;
        o.replica_refresh_s = 1e-6;
        Runtime rt(r, 8, o);
    });
}

TEST(OptionsValidation, ReplicaRefreshEveryCycleAccepted) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.replicate = true;
        o.replica_refresh_s = 0.0; // refresh every cycle
        Runtime rt(r, 8, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 8, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
    });
}

TEST(OptionsValidation, DenseLookupOfSparseRejected) {
    expect_rank_error(1, [](msg::Rank& r) {
        Runtime rt(r, 8);
        rt.register_sparse("S", 16);
        rt.dense("S");
    });
}

}  // namespace
}  // namespace dynmpi
