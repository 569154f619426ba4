// Tests for the MPI-1 compatibility shim: the paper's "before" programs
// (Figure 1) written verbatim against the simulator.
#include "mpisim/mpi_compat.hpp"

#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "support/error.hpp"

namespace dynmpi::mpi {
namespace {

TEST(MpiCompat, InitRankSizeFinalize) {
    msg::Machine m(quiet_cluster(3));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        int rank = -1, size = -1;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm_size(MPI_COMM_WORLD, &size);
        EXPECT_EQ(rank, r.id());
        EXPECT_EQ(size, 3);
        EXPECT_EQ(&mpi_rank(), &r);
        MPI_Finalize();
        EXPECT_THROW(mpi_rank(), Error); // unbound again
    });
}

TEST(MpiCompat, Figure1StyleNearestNeighbor) {
    // The paper's Figure 1 skeleton: compute, then exchange boundary rows
    // with rank-relative neighbors.
    const int kN = 8;
    msg::Machine m(quiet_cluster(4));
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
    msg::Machine m(quiet_cluster(4));
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

TEST(MpiCompat, UnsupportedCommRejected) {
    msg::Machine m(quiet_cluster(1));
    EXPECT_THROW(m.run([](msg::Rank& r) {
        MPI_Init(r);
        int x;
        MPI_Comm_rank(12345, &x);
    }),
                 Error);
}

TEST(MpiCompat, UnsupportedDatatypeOrOpRejected) {
    EXPECT_THROW(mpi_type_size(99), Error);
    msg::Machine m(quiet_cluster(1));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        int in = 1, out = 0;
        EXPECT_THROW(
            MPI_Allreduce(&in, &out, 1, MPI_BYTE, MPI_SUM, MPI_COMM_WORLD),
            Error);
        EXPECT_THROW(MPI_Allreduce(&in, &out, 1, MPI_INT, 99, MPI_COMM_WORLD),
                     Error);
        MPI_Finalize();
    });
}

TEST(MpiCompat, AnyTagAndAnySource) {
    msg::Machine m(quiet_cluster(2));
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
