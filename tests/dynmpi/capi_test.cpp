// Tests for the paper-style DMPI_* call surface (Figure 2 fidelity).
#include "dynmpi/dmpi_c_api.hpp"

#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/mpi_compat.hpp"
#include "mpisim/rank.hpp"
#include "sim/fault_plan.hpp"

namespace dynmpi::capi {
namespace {

RuntimeOptions fast() {
    RuntimeOptions o;
    o.calibrate = false;
    return o;
}

TEST(CApi, LifecycleMirrorsFigure2) {
    msg::Machine m(fast_cluster(4));
    m.run([](msg::Rank& r) {
        DMPI_init(r, 64, fast());
        DenseArray& A = DMPI_register_dense_array("A", 4, sizeof(double));
        int ph = DMPI_init_phase(0, 64, DMPI_NEAREST_NEIGHBOR, 32);
        DMPI_add_array_access("A", DMPI_WRITE, ph, 1, 0);
        DMPI_commit();

        for (int t = 0; t < 5; ++t) {
            DMPI_begin_cycle();
            EXPECT_TRUE(DMPI_participating());
            int lo = DMPI_get_start_iter(ph), hi = DMPI_get_end_iter(ph);
            EXPECT_EQ(hi - lo + 1, 16); // even 64/4 split
            for (int i = lo; i <= hi; ++i) A.at<double>(i, 0) = i;
            DMPI_run_phase(ph, std::vector<double>(16, 1e-4));
            DMPI_end_cycle();
        }
        EXPECT_EQ(DMPI_get_num_active(), 4);
        EXPECT_EQ(DMPI_get_rel_rank(), r.id());
        DMPI_finalize();
    });
}

TEST(CApi, RelativeRankMessaging) {
    msg::Machine m(fast_cluster(3));
    m.run([](msg::Rank& r) {
        DMPI_init(r, 30, fast());
        DMPI_register_dense_array("A", 1, sizeof(double));
        int ph = DMPI_init_phase(0, 30, DMPI_NEAREST_NEIGHBOR, 8);
        DMPI_add_array_access("A", DMPI_WRITE, ph, 1, 0);
        DMPI_commit();

        DMPI_begin_cycle();
        int rel = DMPI_get_rel_rank();
        if (rel > 0) {
            int v = rel;
            DMPI_Send(rel - 1, 9, &v, sizeof v);
        }
        if (rel < DMPI_get_num_active() - 1) {
            int got = -1;
            DMPI_Recv(rel + 1, 9, &got, sizeof got);
            EXPECT_EQ(got, rel + 1);
        }
        DMPI_end_cycle();
        DMPI_finalize();
    });
}

TEST(CApi, SparseRegistration) {
    msg::Machine m(fast_cluster(2));
    m.run([](msg::Rank& r) {
        DMPI_init(r, 16, fast());
        SparseMatrix& S = DMPI_register_sparse_array("S", 32);
        int ph = DMPI_init_phase(0, 16, DMPI_NONE, 0);
        DMPI_add_array_access("S", DMPI_WRITE, ph, 1, 0);
        DMPI_commit();
        DMPI_begin_cycle();
        for (int i = DMPI_get_start_iter(ph); i <= DMPI_get_end_iter(ph); ++i)
            S.set(i, i % 32, 1.0);
        DMPI_run_phase(ph,
                       std::vector<double>(
                           static_cast<std::size_t>(DMPI_get_end_iter(ph) -
                                                    DMPI_get_start_iter(ph) +
                                                    1),
                           1e-4));
        DMPI_end_cycle();
        EXPECT_EQ(S.nnz(), 8);
        DMPI_finalize();
    });
}

TEST(CApi, DoubleInitRejected) {
    msg::Machine m(fast_cluster(1));
    EXPECT_THROW(m.run([](msg::Rank& r) {
        DMPI_init(r, 8, fast());
        DMPI_init(r, 8, fast());
    }),
                 Error);
}

TEST(CApi, UseBeforeInitRejected) {
    msg::Machine m(fast_cluster(1));
    EXPECT_THROW(m.run([](msg::Rank&) { DMPI_begin_cycle(); }), Error);
}

TEST(CApi, FinalizeAllowsReinit) {
    msg::Machine m(fast_cluster(1));
    m.run([](msg::Rank& r) {
        DMPI_init(r, 8, fast());
        DMPI_finalize();
        DMPI_init(r, 8, fast());
        DMPI_finalize();
        SUCCEED();
    });
}

TEST(CApi, AdaptationWorksThroughShim) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(2, 0.5, -1.0, 2);
    std::vector<int> counts;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o = fast();
        o.enable_removal = false;
        DMPI_init(r, 64, o);
        DenseArray& A = DMPI_register_dense_array("A", 4, sizeof(double));
        (void)A;
        int ph = DMPI_init_phase(0, 64, DMPI_NEAREST_NEIGHBOR, 32);
        DMPI_add_array_access("A", DMPI_WRITE, ph, 1, 0);
        DMPI_commit();
        for (int t = 0; t < 80; ++t) {
            DMPI_begin_cycle();
            if (DMPI_participating()) {
                int n = DMPI_get_end_iter(ph) - DMPI_get_start_iter(ph) + 1;
                DMPI_run_phase(ph, std::vector<double>(
                                       static_cast<std::size_t>(n), 5e-3));
            }
            DMPI_end_cycle();
        }
        if (r.id() == 0)
            counts = DMPI_runtime().distribution().counts();
        DMPI_finalize();
    });
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_LT(counts[2], counts[0]); // loaded node sheds rows
}

TEST(CApi, GlobalReductionsAndClock) {
    msg::Machine m(fast_cluster(3));
    m.run([](msg::Rank& r) {
        DMPI_init(r, 24, fast());
        DMPI_register_dense_array("A", 1, sizeof(double));
        int ph = DMPI_init_phase(0, 24, DMPI_NONE, 0);
        DMPI_add_array_access("A", DMPI_WRITE, ph, 1, 0);
        DMPI_commit();
        DMPI_begin_cycle();
        double t0 = DMPI_Wtime();
        DMPI_run_phase(ph, std::vector<double>(8, 1e-3));
        EXPECT_GT(DMPI_Wtime(), t0);
        EXPECT_DOUBLE_EQ(DMPI_Allreduce_sum(1.0), 3.0);
        EXPECT_DOUBLE_EQ(DMPI_Allreduce_max((double)r.id()), 2.0);
        DMPI_end_cycle();
        DMPI_finalize();
    });
}

TEST(CApi, ShimStateFollowsTheRunningRank) {
    // Two ranks take turns in the DMPI_* and MPI_* shims, with a blocking
    // receive between turns: each must only ever see its own state.
    msg::Machine m(fast_cluster(2));
    std::vector<const Runtime*> runtimes(2, nullptr);
    m.run([&](msg::Rank& r) {
        using namespace dynmpi::mpi;
        MPI_Init(r);
        DMPI_init(r, 16, fast());
        const Runtime* mine = &DMPI_runtime();
        runtimes[static_cast<std::size_t>(r.id())] = mine;
        const int peer = 1 - r.id();
        for (int turn = 0; turn < 8; ++turn) {
            int token = turn;
            if (turn % 2 == r.id()) {
                r.compute(1e-3);
                MPI_Send(&token, 1, MPI_INT, peer, turn, MPI_COMM_WORLD);
            } else {
                MPI_Recv(&token, 1, MPI_INT, peer, turn, MPI_COMM_WORLD,
                         nullptr);
                EXPECT_EQ(token, turn);
            }
            int id = -1;
            MPI_Comm_rank(MPI_COMM_WORLD, &id);
            EXPECT_EQ(id, r.id());
            EXPECT_EQ(&DMPI_runtime(), mine);
            EXPECT_EQ(&DMPI_runtime().rank(), &r);
        }
        DMPI_finalize();
        MPI_Finalize();
    });
    EXPECT_NE(runtimes[0], nullptr);
    EXPECT_NE(runtimes[1], nullptr);
    EXPECT_NE(runtimes[0], runtimes[1]);
}

TEST(CApi, RevivedRankCanInitAgain) {
    // The crashed incarnation's runtime dies with it; the revived rank
    // reruns the program from the top, DMPI_init included.
    msg::Machine m(fast_cluster(2));
    m.cluster().install_faults(
        sim::FaultPlan::parse("crash node=1 t=0.5\nrevive node=1 t=1.0\n"));
    std::vector<int> inits(2, 0), finished(2, 0);
    m.run([&](msg::Rank& r) {
        DMPI_init(r, 8, fast());
        ++inits[static_cast<std::size_t>(r.id())];
        EXPECT_EQ(&DMPI_runtime().rank(), &r);
        r.sleep(2.0); // node 1's first incarnation crashes in here
        ++finished[static_cast<std::size_t>(r.id())];
        DMPI_finalize();
    });
    EXPECT_EQ(inits, (std::vector<int>{1, 2}));
    EXPECT_EQ(finished, (std::vector<int>{1, 1}));
}

TEST(CApi, ShimsOutsideARankAreRejected) {
    EXPECT_THROW(DMPI_runtime(), Error);
    DMPI_finalize(); // no bound rank: nothing to destroy
    msg::Machine m(fast_cluster(1));
    EXPECT_THROW(m.run([&](msg::Rank&) {
        msg::Machine other(fast_cluster(1));
        msg::Rank stranger(other, 0);
        DMPI_init(stranger, 8, fast());
    }),
                 Error);
}

}  // namespace
}  // namespace dynmpi::capi
