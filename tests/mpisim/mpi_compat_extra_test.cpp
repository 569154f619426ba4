// MPI compat status reporting per datatype, and the machine's traffic
// accounting.
#include <gtest/gtest.h>

#include <string>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/mpi_compat.hpp"

namespace dynmpi::mpi {
namespace {

TEST(MpiCompatExtra, RecvFillsStatusForLongAndByte) {
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
            MPI_Status st;
            MPI_Recv(l, 2, MPI_LONG, 0, 4, MPI_COMM_WORLD, &st);
            EXPECT_EQ(st.MPI_SOURCE, 0);
            EXPECT_EQ(st.MPI_TAG, 4);
            EXPECT_EQ(l[1], -8);
            MPI_Recv(b, 5, MPI_BYTE, 0, MPI_ANY_TAG, MPI_COMM_WORLD, &st);
            EXPECT_EQ(st.MPI_TAG, 6);
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
        int in = 0, out = 0;
        MPI_Allreduce(&in, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
        MPI_Finalize();
    });
    const auto& t = m.traffic();
    auto user = static_cast<std::size_t>(msg::TagSpace::User);
    auto coll = static_cast<std::size_t>(msg::TagSpace::Collective);
    EXPECT_EQ(t.messages[user], 1u);
    EXPECT_EQ(t.bytes[user], sizeof(int));
    EXPECT_GE(t.messages[coll], 2u); // allreduce tree traffic
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
