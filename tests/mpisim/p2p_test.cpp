#include <gtest/gtest.h>

#include <numeric>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "support/error.hpp"

namespace dynmpi::msg {
namespace {

int recv_int(Rank& r, int src, int tag) {
    int v = 0;
    EXPECT_EQ(r.recv(src, tag, &v, sizeof v), sizeof v);
    return v;
}

TEST(P2P, PingPongDeliversPayload) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            std::vector<double> v(100);
            std::iota(v.begin(), v.end(), 0.0);
            r.send(1, 5, v.data(), v.size() * sizeof(double));
            std::vector<double> back(100);
            ASSERT_EQ(r.recv(1, 6, back.data(), back.size() * sizeof(double)),
                      100 * sizeof(double));
            for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(back[(size_t)i], 2.0 * i);
        } else {
            std::vector<double> v(100);
            r.recv(0, 5, v.data(), v.size() * sizeof(double));
            for (auto& x : v) x *= 2.0;
            r.send(0, 6, v.data(), v.size() * sizeof(double));
        }
    });
}

TEST(P2P, MessagesMatchedByTag) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            int a = 111, b = 222;
            r.send(1, 10, &a, sizeof a);
            r.send(1, 20, &b, sizeof b);
        } else {
            // Receive out of order: tag 20 first.
            EXPECT_EQ(recv_int(r, 0, 20), 222);
            EXPECT_EQ(recv_int(r, 0, 10), 111);
        }
    });
}

TEST(P2P, MessagesMatchedBySource) {
    Machine m(quiet_cluster(3));
    m.run([](Rank& r) {
        if (r.id() == 2) {
            EXPECT_EQ(recv_int(r, 1, 0), 1);
            EXPECT_EQ(recv_int(r, 0, 0), 0);
        } else {
            int me = r.id();
            r.send(2, 0, &me, sizeof me);
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
            r.send(0, 3, &v, sizeof v);
        }
    });
}

TEST(P2P, AnyTagReportsActualTag) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        if (r.id() == 0) {
            int v = 9;
            r.send(1, 42, &v, sizeof v);
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
            const int v = 42;
            r.send(1, 5, &v, sizeof v);
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
            for (int i = 0; i < kN; ++i) r.send(1, 1, &i, sizeof i);
        } else {
            for (int i = 0; i < kN; ++i) EXPECT_EQ(recv_int(r, 0, 1), i);
        }
    });
}

TEST(P2P, SendRecvCrossExchange) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) {
        double mine = 100.0 + r.id(), theirs = -1;
        int peer = 1 - r.id();
        r.send(peer, 0, &mine, sizeof mine); // eager: returns before the recv
        r.recv(peer, 0, &theirs, sizeof theirs);
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

TEST(P2P, ChargedSizeDrivesWireAndCpuCost) {
    // 16 copied bytes charged as 8,192 cost exactly what an 8,192-byte send
    // costs on the wire, on both CPUs and in the traffic counters, while
    // the receiver gets (and has written) only the 16 bytes.
    constexpr std::size_t kCharged = 8192, kCopied = 16;
    struct Seen {
        double send_done = 0, send_cpu = 0, recv_done = 0, recv_cpu = 0;
        std::size_t got = 0;
        std::uint64_t bytes = 0, wire_bytes = 0;
    };
    auto run = [](std::size_t copied, std::size_t charged) {
        Machine m(quiet_cluster(2));
        Seen s;
        std::vector<std::uint8_t> in(kCharged, 0xAB);
        m.run([&](Rank& r) {
            if (r.id() == 0) {
                std::vector<std::uint8_t> out(kCharged, 0x11);
                r.send(1, 0, out.data(), copied, charged);
                s.send_done = r.hrtime();
                s.send_cpu = r.node().cpu().app_cpu_seconds();
            } else {
                s.got = r.recv(0, 0, in.data(), in.size());
                s.recv_done = r.hrtime();
                s.recv_cpu = r.node().cpu().app_cpu_seconds();
            }
        });
        s.bytes = m.traffic().bytes[static_cast<int>(TagSpace::User)];
        s.wire_bytes = m.cluster().network().bytes_sent();
        if (copied == kCopied) {
            for (std::size_t i = 0; i < in.size(); ++i)
                EXPECT_EQ(in[i], i < kCopied ? 0x11 : 0xAB) << "byte " << i;
        }
        return s;
    };
    const Seen full = run(kCharged, 0), halo = run(kCopied, kCharged);
    EXPECT_EQ(full.got, kCharged);
    EXPECT_EQ(halo.got, kCopied);
    EXPECT_EQ(halo.send_done, full.send_done);
    EXPECT_EQ(halo.send_cpu, full.send_cpu);
    EXPECT_EQ(halo.recv_done, full.recv_done);
    EXPECT_EQ(halo.recv_cpu, full.recv_cpu);
    EXPECT_EQ(halo.bytes, kCharged);
    EXPECT_EQ(full.bytes, kCharged);
    EXPECT_EQ(halo.wire_bytes, kCharged);
}

TEST(P2P, ChargedSizeBelowCopiedBytesRejected) {
    Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([](Rank& r) {
        if (r.id() == 0) {
            double v[2] = {1, 2};
            r.send(1, 0, v, sizeof v, sizeof v[0]);
        }
    }),
                 Error);
}

TEST(P2P, SelfSendAllowed) {
    Machine m(quiet_cluster(1));
    m.run([](Rank& r) {
        int v = 77;
        r.send(0, 0, &v, sizeof v);
        EXPECT_EQ(recv_int(r, 0, 0), 77);
    });
}

TEST(P2P, InvalidDestinationRejected) {
    Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([](Rank& r) {
        int v = 0;
        r.send(5, 0, &v, sizeof v);
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
