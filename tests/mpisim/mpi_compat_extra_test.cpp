// Second-wave MPI compat calls (gather/scatter/alltoall/probe/count) and
// the machine's traffic accounting.
#include <gtest/gtest.h>

#include <string>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/mpi_compat.hpp"

namespace dynmpi::mpi {
namespace {

TEST(MpiCompatExtra, GatherCollectsAtRoot) {
    msg::Machine m(quiet_cluster(4));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        int mine[2] = {r.id(), r.id() * r.id()};
        int all[8] = {};
        MPI_Gather(mine, 2, MPI_INT, all, 2, MPI_INT, 1, MPI_COMM_WORLD);
        if (r.id() == 1)
            for (int k = 0; k < 4; ++k) {
                EXPECT_EQ(all[2 * k], k);
                EXPECT_EQ(all[2 * k + 1], k * k);
            }
        MPI_Finalize();
    });
}

TEST(MpiCompatExtra, ScatterDealsFromRoot) {
    msg::Machine m(quiet_cluster(3));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        double chunks[6] = {10, 11, 20, 21, 30, 31};
        double mine[2] = {};
        MPI_Scatter(r.id() == 0 ? chunks : nullptr, 2, MPI_DOUBLE, mine, 2,
                    MPI_DOUBLE, 0, MPI_COMM_WORLD);
        EXPECT_DOUBLE_EQ(mine[0], (r.id() + 1) * 10.0);
        EXPECT_DOUBLE_EQ(mine[1], (r.id() + 1) * 10.0 + 1);
        MPI_Finalize();
    });
}

TEST(MpiCompatExtra, AlltoallTransposes) {
    msg::Machine m(quiet_cluster(3));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        int out[3], in[3];
        for (int j = 0; j < 3; ++j) out[j] = r.id() * 10 + j;
        MPI_Alltoall(out, 1, MPI_INT, in, 1, MPI_INT, MPI_COMM_WORLD);
        for (int i = 0; i < 3; ++i) EXPECT_EQ(in[i], i * 10 + r.id());
        MPI_Finalize();
    });
}

TEST(MpiCompatExtra, IprobeAndGetCount) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        if (r.id() == 0) {
            double v[3] = {1, 2, 3};
            MPI_Send(v, 3, MPI_DOUBLE, 1, 9, MPI_COMM_WORLD);
        } else {
            int flag = 0;
            MPI_Iprobe(0, 9, MPI_COMM_WORLD, &flag, nullptr);
            EXPECT_EQ(flag, 0); // not yet arrived
            mpi_rank().sleep(0.5);
            MPI_Status st;
            MPI_Iprobe(0, 9, MPI_COMM_WORLD, &flag, &st);
            EXPECT_EQ(flag, 1);
            EXPECT_EQ(st.MPI_SOURCE, 0);
            EXPECT_EQ(st.MPI_TAG, 9);
            // A wildcard probe reports the message's source and tag.
            MPI_Status any;
            MPI_Iprobe(MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &flag,
                       &any);
            EXPECT_EQ(flag, 1);
            EXPECT_EQ(any.MPI_SOURCE, 0);
            EXPECT_EQ(any.MPI_TAG, 9);
            double v[3];
            MPI_Recv(v, 3, MPI_DOUBLE, 0, 9, MPI_COMM_WORLD, &st);
            int count = 0;
            MPI_Get_count(&st, MPI_DOUBLE, &count);
            EXPECT_EQ(count, 3);
        }
        MPI_Finalize();
    });
}

TEST(MpiCompatExtra, WaitFillsStatusForLongAndByte) {
    EXPECT_EQ(mpi_type_size(MPI_BYTE), 1u);
    EXPECT_EQ(mpi_type_size(MPI_LONG), sizeof(long));
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        if (r.id() == 0) {
            long l[2] = {7, -8};
            char b[5] = {'h', 'e', 'l', 'l', 'o'};
            MPI_Send(l, 2, MPI_LONG, 1, 4, MPI_COMM_WORLD);
            MPI_Send(b, 5, MPI_BYTE, 1, 6, MPI_COMM_WORLD);
        } else {
            long l[2] = {};
            char b[5] = {};
            MPI_Request req;
            MPI_Status st;
            int count = 0;
            MPI_Irecv(l, 2, MPI_LONG, 0, 4, MPI_COMM_WORLD, &req);
            MPI_Wait(&req, &st);
            EXPECT_EQ(st.MPI_SOURCE, 0);
            EXPECT_EQ(st.MPI_TAG, 4);
            MPI_Get_count(&st, MPI_LONG, &count);
            EXPECT_EQ(count, 2);
            EXPECT_EQ(l[1], -8);
            MPI_Irecv(b, 5, MPI_BYTE, 0, 6, MPI_COMM_WORLD, &req);
            MPI_Wait(&req, &st);
            EXPECT_EQ(st.MPI_TAG, 6);
            EXPECT_EQ(st.bytes, 5);
            EXPECT_EQ(std::string(b, 5), "hello");
        }
        MPI_Finalize();
    });
}

TEST(MpiCompatExtra, TrafficAccountingSplitsBySpace) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        MPI_Init(r);
        // One user message and one collective.
        if (r.id() == 0) {
            int v = 1;
            MPI_Send(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
        } else {
            int v;
            MPI_Recv(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD,
                     MPI_STATUS_IGNORE);
        }
        MPI_Barrier(MPI_COMM_WORLD);
        MPI_Finalize();
    });
    const auto& t = m.traffic();
    auto user = static_cast<std::size_t>(msg::TagSpace::User);
    auto coll = static_cast<std::size_t>(msg::TagSpace::Collective);
    EXPECT_EQ(t.messages[user], 1u);
    EXPECT_EQ(t.bytes[user], sizeof(int));
    EXPECT_GE(t.messages[coll], 2u); // barrier tree traffic
    EXPECT_EQ(t.control_messages, 0u);
}

TEST(MpiCompatExtra, ControlTrafficCountedSeparately) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        if (r.id() == 0) {
            msg::Rank::ControlScope control(r);
            double v = 1;
            r.send_wire(1, msg::make_tag(msg::TagSpace::Runtime, 5), &v,
                        sizeof v);
        } else {
            msg::Rank::ControlScope control(r);
            r.recv_wire(0, msg::make_tag(msg::TagSpace::Runtime, 5));
        }
    });
    EXPECT_EQ(m.traffic().control_messages, 1u);
    EXPECT_EQ(m.traffic().control_bytes, sizeof(double));
    EXPECT_EQ(m.traffic().total_messages(), 0u);
}

}  // namespace
}  // namespace dynmpi::mpi
