#include <gtest/gtest.h>

#include <numeric>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "support/error.hpp"

namespace dynmpi::msg {
namespace {

TEST(P2P, PingPongDeliversPayload) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            std::vector<double> v(100);
            std::iota(v.begin(), v.end(), 0.0);
            r.send_vector(1, 5, v);
            auto back = r.recv_vector<double>(1, 6);
            ASSERT_EQ(back.size(), 100u);
            for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(back[(size_t)i], 2.0 * i);
        } else {
            auto v = r.recv_vector<double>(0, 5);
            for (auto& x : v) x *= 2.0;
            r.send_vector(0, 6, v);
        }
    });
}

TEST(P2P, MessagesMatchedByTag) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            int a = 111, b = 222;
            r.send_value(1, 10, a);
            r.send_value(1, 20, b);
        } else {
            // Receive out of order: tag 20 first.
            EXPECT_EQ(r.recv_value<int>(0, 20), 222);
            EXPECT_EQ(r.recv_value<int>(0, 10), 111);
        }
    });
}

TEST(P2P, MessagesMatchedBySource) {
    Machine m(quiet_cluster(3));
    m.run([](Rank& r) {
        if (r.id() == 2) {
            EXPECT_EQ(r.recv_value<int>(1, 0), 1);
            EXPECT_EQ(r.recv_value<int>(0, 0), 0);
        } else {
            int me = r.id();
            r.send_value(2, 0, me);
        }
    });
}

TEST(P2P, AnySourceReceivesFromEither) {
    Machine m(quiet_cluster(3));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            int got_src_sum = 0;
            for (int i = 0; i < 2; ++i) {
                int v, src;
                r.recv(kAnySource, 3, &v, sizeof v, &src);
                EXPECT_EQ(v, src * 10);
                got_src_sum += src;
            }
            EXPECT_EQ(got_src_sum, 3); // ranks 1 and 2
        } else {
            int v = r.id() * 10;
            r.send_value(0, 3, v);
        }
    });
}

TEST(P2P, AnyTagReportsActualTag) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            int v = 9;
            r.send_value(1, 42, v);
        } else {
            int v, tag;
            r.recv(0, kAnyTag, &v, sizeof v, nullptr, &tag);
            EXPECT_EQ(tag, 42);
            EXPECT_EQ(v, 9);
        }
    });
}

TEST(P2P, BlockedAnyTagRecvSkipsOtherTagSpaces) {
    // Rank 1 blocks in a full-wildcard receive before anything arrives.  A
    // collective- and a runtime-tag packet land first and must stay in the
    // mailbox; the user packet sent a second later is the one it takes.
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        const auto coll = make_tag(TagSpace::Collective, 3);
        const auto rt = make_tag(TagSpace::Runtime, 3);
        if (r.id() == 0) {
            const int internal = 7;
            r.send_wire(1, coll, &internal, sizeof internal);
            r.send_wire(1, rt, &internal, sizeof internal);
            r.sleep(1.0);
            r.send_value(1, 5, 42);
            return;
        }
        int v = 0, src = -1, tag = -1;
        r.recv(kAnySource, kAnyTag, &v, sizeof v, &src, &tag);
        EXPECT_GT(r.hrtime(), 1.0);
        EXPECT_EQ(v, 42);
        EXPECT_EQ(src, 0);
        EXPECT_EQ(tag, 5);
        EXPECT_EQ(r.recv_wire(0, coll).size(), sizeof(int));
        EXPECT_EQ(r.recv_wire(0, rt).size(), sizeof(int));
    });
}

TEST(P2P, FifoPreservedPerSenderAndTag) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        const int kN = 50;
        if (r.id() == 0) {
            for (int i = 0; i < kN; ++i) r.send_value(1, 1, i);
        } else {
            for (int i = 0; i < kN; ++i) EXPECT_EQ(r.recv_value<int>(0, 1), i);
        }
    });
}

TEST(P2P, SendRecvCrossExchange) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        double mine = 100.0 + r.id(), theirs = -1;
        int peer = 1 - r.id();
        r.sendrecv(peer, 0, &mine, sizeof mine, peer, 0, &theirs, sizeof theirs);
        EXPECT_DOUBLE_EQ(theirs, 100.0 + peer);
    });
}

TEST(P2P, TransferTimeScalesWithMessageSize) {
    auto timed = [](std::size_t bytes) {
        Machine m(quiet_cluster(2));
        double t = 0;
        m.run([&](Rank& r) {
            if (r.id() == 0) {
                std::vector<std::uint8_t> buf(bytes, 1);
                r.send(1, 0, buf.data(), buf.size());
            } else {
                std::vector<std::uint8_t> buf(bytes);
                r.recv(0, 0, buf.data(), buf.size());
                t = r.hrtime();
            }
        });
        return t;
    };
    double small = timed(1000), large = timed(1000000);
    EXPECT_GT(large, 10 * small);
}

TEST(P2P, RecvBufferTooSmallRejected) {
    Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([](Rank& r) {
        if (r.id() == 0) {
            double big[4] = {1, 2, 3, 4};
            r.send(1, 0, big, sizeof big);
        } else {
            double one;
            r.recv(0, 0, &one, sizeof one);
        }
    }),
                 Error);
}

TEST(P2P, ProbeSeesBufferedMessage) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            int v = 1;
            r.send_value(1, 8, v);
        } else {
            EXPECT_FALSE(r.probe(0, 8));
            r.sleep(1.0); // give the message time to arrive
            EXPECT_TRUE(r.probe(0, 8));
            EXPECT_FALSE(r.probe(0, 9));
            r.recv_value<int>(0, 8);
            EXPECT_FALSE(r.probe(0, 8));
        }
    });
}

TEST(P2P, SelfSendAllowed) {
    Machine m(quiet_cluster(1));
    m.run([](Rank& r) {
        int v = 77;
        r.send_value(0, 0, v);
        EXPECT_EQ(r.recv_value<int>(0, 0), 77);
    });
}

TEST(P2P, InvalidDestinationRejected) {
    Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([](Rank& r) {
        int v = 0;
        r.send_value(5, 0, v);
    }),
                 Error);
}

TEST(P2P, ZeroByteMessageWorks) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            r.send(1, 0, nullptr, 0);
        } else {
            std::size_t n = r.recv(0, 0, nullptr, 0);
            EXPECT_EQ(n, 0u);
        }
    });
}

}  // namespace
}  // namespace dynmpi::msg
