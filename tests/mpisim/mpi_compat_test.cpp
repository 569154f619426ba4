// Tests for the MPI-1 compatibility shim: the paper's "before" programs
// (Figure 1) written verbatim against the simulator.
#include "mpisim/mpi_compat.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "mpisim/machine.hpp"

namespace dynmpi::mpi {
namespace {

sim::ClusterConfig cfg(int nodes) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.cpu.jitter_frac = 0.0;
    return c;
}

TEST(MpiCompat, InitRankSizeFinalize) {
    msg::Machine m(cfg(3));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        int rank = -1, size = -1;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm_size(MPI_COMM_WORLD, &size);
        EXPECT_EQ(rank, r.id());
        EXPECT_EQ(size, 3);
        MPI_Finalize();
    });
}

TEST(MpiCompat, Figure1StyleNearestNeighbor) {
    // The paper's Figure 1 skeleton: compute, then exchange boundary rows
    // with rank-relative neighbors.
    const int kN = 8;
    msg::Machine m(cfg(4));
    m.run([kN](msg::Rank& rk) {
        MPI_Init(rk);
        int rank, numprocs;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm_size(MPI_COMM_WORLD, &numprocs);
        std::vector<double> boundary(kN, rank * 1.0);
        std::vector<double> ghost(kN, -1);
        for (int t = 0; t < 3; ++t) {
            if (rank > 0)
                MPI_Send(boundary.data(), kN, MPI_DOUBLE, rank - 1, 0,
                         MPI_COMM_WORLD);
            if (rank < numprocs - 1) {
                MPI_Status st;
                MPI_Recv(ghost.data(), kN, MPI_DOUBLE, rank + 1, 0,
                         MPI_COMM_WORLD, &st);
                EXPECT_EQ(st.MPI_SOURCE, rank + 1);
                EXPECT_DOUBLE_EQ(ghost[0], rank + 1.0);
            }
        }
        MPI_Finalize();
    });
}

TEST(MpiCompat, AllreduceAllTypesAndOps) {
    msg::Machine m(cfg(4));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        double d = r.id() + 1.0, dsum = 0;
        MPI_Allreduce(&d, &dsum, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
        EXPECT_DOUBLE_EQ(dsum, 10.0);
        int i = r.id(), imax = -1, imin = -1;
        MPI_Allreduce(&i, &imax, 1, MPI_INT, MPI_MAX, MPI_COMM_WORLD);
        MPI_Allreduce(&i, &imin, 1, MPI_INT, MPI_MIN, MPI_COMM_WORLD);
        EXPECT_EQ(imax, 3);
        EXPECT_EQ(imin, 0);
        long l = 1, lsum = 0;
        MPI_Allreduce(&l, &lsum, 1, MPI_LONG, MPI_SUM, MPI_COMM_WORLD);
        EXPECT_EQ(lsum, 4);
        MPI_Finalize();
    });
}

TEST(MpiCompat, BcastAndReduce) {
    msg::Machine m(cfg(4));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        double v[2] = {0, 0};
        if (r.id() == 2) {
            v[0] = 3.5;
            v[1] = -1.0;
        }
        MPI_Bcast(v, 2, MPI_DOUBLE, 2, MPI_COMM_WORLD);
        EXPECT_DOUBLE_EQ(v[0], 3.5);
        EXPECT_DOUBLE_EQ(v[1], -1.0);

        int x = 1, total = 0;
        MPI_Reduce(&x, &total, 1, MPI_INT, MPI_SUM, 0, MPI_COMM_WORLD);
        if (r.id() == 0) {
            EXPECT_EQ(total, 4);
        }
        MPI_Finalize();
    });
}

TEST(MpiCompat, AllgatherConcatenatesInRankOrder) {
    msg::Machine m(cfg(3));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        double mine[2] = {r.id() * 10.0, r.id() * 10.0 + 1};
        double all[6] = {};
        MPI_Allgather(mine, 2, MPI_DOUBLE, all, 2, MPI_DOUBLE,
                      MPI_COMM_WORLD);
        for (int k = 0; k < 3; ++k) {
            EXPECT_DOUBLE_EQ(all[2 * k], k * 10.0);
            EXPECT_DOUBLE_EQ(all[2 * k + 1], k * 10.0 + 1);
        }
        MPI_Finalize();
    });
}

TEST(MpiCompat, NonblockingWaitall) {
    msg::Machine m(cfg(2));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        int me = r.id(), peer = 1 - me;
        int incoming = -1;
        MPI_Request reqs[2];
        MPI_Irecv(&incoming, 1, MPI_INT, peer, 5, MPI_COMM_WORLD, &reqs[0]);
        MPI_Isend(&me, 1, MPI_INT, peer, 5, MPI_COMM_WORLD, &reqs[1]);
        MPI_Waitall(2, reqs, nullptr);
        EXPECT_EQ(incoming, peer);
        MPI_Finalize();
    });
}

TEST(MpiCompat, SendrecvAndWtime) {
    msg::Machine m(cfg(2));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        double t0 = MPI_Wtime();
        int me = r.id(), peer = 1 - me, got = -1;
        MPI_Sendrecv(&me, 1, MPI_INT, peer, 1, &got, 1, MPI_INT, peer, 1,
                     MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(got, peer);
        EXPECT_GT(MPI_Wtime(), t0);
        MPI_Finalize();
    });
}

TEST(MpiCompat, BarrierSynchronizes) {
    msg::Machine m(cfg(3));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        r.compute(0.1 * (r.id() + 1));
        MPI_Barrier(MPI_COMM_WORLD);
        EXPECT_GE(MPI_Wtime(), 0.3);
        MPI_Finalize();
    });
}

TEST(MpiCompat, UnsupportedCommRejected) {
    msg::Machine m(cfg(1));
    EXPECT_THROW(m.run([](msg::Rank& r) {
        MPI_Init(r);
        int x;
        MPI_Comm_rank(12345, &x);
    }),
                 Error);
}

TEST(MpiCompat, AnyTagAndAnySource) {
    msg::Machine m(cfg(2));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        if (r.id() == 0) {
            int v = 42;
            MPI_Send(&v, 1, MPI_INT, 1, 17, MPI_COMM_WORLD);
        } else {
            int v = 0;
            MPI_Status st;
            MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG,
                     MPI_COMM_WORLD, &st);
            EXPECT_EQ(v, 42);
            EXPECT_EQ(st.MPI_SOURCE, 0);
            EXPECT_EQ(st.MPI_TAG, 17);
        }
        MPI_Finalize();
    });
}

}  // namespace
}  // namespace dynmpi::mpi
