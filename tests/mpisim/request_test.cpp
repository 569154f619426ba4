#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "support/error.hpp"

namespace dynmpi::msg {
namespace {

TEST(Request, IsendCompletesImmediately) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            int v = 5;
            Request req = r.isend(1, 0, &v, sizeof v);
            EXPECT_TRUE(req.completed());
            EXPECT_EQ(r.wait(req), 0u);
        } else {
            EXPECT_EQ(r.recv_value<int>(0, 0), 5);
        }
    });
}

TEST(Request, IrecvWaitDeliversPayload) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            double v = 2.5;
            r.send(1, 3, &v, sizeof v);
        } else {
            double buf = 0;
            Request req = r.irecv(0, 3, &buf, sizeof buf);
            EXPECT_FALSE(req.completed());
            EXPECT_EQ(r.wait(req), sizeof(double));
            EXPECT_DOUBLE_EQ(buf, 2.5);
            EXPECT_EQ(req.source(), 0);
        }
    });
}

TEST(Request, PostAllReceivesThenWaitall) {
    // The classic MPI pattern: post every halo receive up front, send, then
    // wait for all of them.
    Machine m(quiet_cluster(4));
    m.run([](Rank& r) {
        int left = (r.id() + r.size() - 1) % r.size();
        int right = (r.id() + 1) % r.size();
        int from_left = -1, from_right = -1;
        std::vector<Request> reqs;
        reqs.push_back(r.irecv(left, 1, &from_left, sizeof(int)));
        reqs.push_back(r.irecv(right, 2, &from_right, sizeof(int)));
        int me = r.id();
        r.send(right, 1, &me, sizeof me);
        r.send(left, 2, &me, sizeof me);
        r.waitall(reqs);
        EXPECT_EQ(from_left, left);
        EXPECT_EQ(from_right, right);
    });
}

TEST(Request, TestPollsWithoutBlocking) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            r.sleep(1.0);
            int v = 9;
            r.send(1, 7, &v, sizeof v);
        } else {
            int buf = 0;
            Request req = r.irecv(0, 7, &buf, sizeof buf);
            EXPECT_FALSE(r.test(req)); // nothing sent yet
            r.sleep(2.0);              // message arrives meanwhile
            EXPECT_TRUE(r.test(req));
            EXPECT_EQ(buf, 9);
            EXPECT_TRUE(r.test(req)); // idempotent once complete
        }
    });
}

TEST(Request, AnySourceIrecvReportsSender) {
    Machine m(quiet_cluster(3));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            int buf = 0;
            Request req = r.irecv(kAnySource, 4, &buf, sizeof buf);
            r.wait(req);
            EXPECT_EQ(buf, req.source() * 11);
        } else if (r.id() == 1) {
            int v = 11;
            r.send(0, 4, &v, sizeof v);
        }
    });
}

TEST(Request, WaitOnNullRequestRejected) {
    Machine m(quiet_cluster(1));
    EXPECT_THROW(m.run([](Rank& r) {
        Request req;
        r.wait(req);
    }),
                 Error);
}

TEST(Request, IrecvBufferTooSmallRejected) {
    Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([](Rank& r) {
        if (r.id() == 0) {
            double big[4] = {};
            r.send(1, 0, big, sizeof big);
        } else {
            double one;
            Request req = r.irecv(0, 0, &one, sizeof one);
            r.wait(req);
        }
    }),
                 Error);
}

}  // namespace
}  // namespace dynmpi::msg
