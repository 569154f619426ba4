// Tests for the OS-noise models: wake-up latency, sync-point straggle, and
// control-plane (daemon-band) traffic.
#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "sim/cpu.hpp"

namespace dynmpi::sim {
namespace {

TEST(OsNoise, UnloadedNodeHasNoWakeDelayOrStraggle) {
    Engine e;
    Cpu cpu(e, 0, CpuParams{}, 1);
    for (int i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(cpu.next_wake_delay(), 0.0);
        EXPECT_DOUBLE_EQ(cpu.sync_straggle(), 0.0);
    }
}

TEST(OsNoise, LoadedNodeDelaysBounded) {
    Engine e;
    CpuParams p;
    Cpu cpu(e, 0, p, 1);
    cpu.set_runnable_competitors(3);
    double wake_sum = 0, straggle_sum = 0;
    for (int i = 0; i < 200; ++i) {
        double w = cpu.next_wake_delay();
        double s = cpu.sync_straggle();
        EXPECT_GE(w, 0.0);
        EXPECT_LE(w, 3 * p.wake_delay_s + 1e-12);
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 3 * p.straggle_s + 1e-12);
        wake_sum += w;
        straggle_sum += s;
    }
    // Uniform draws: averages near half the bound.
    EXPECT_NEAR(wake_sum / 200, 1.5 * p.wake_delay_s, 0.5 * p.wake_delay_s);
    EXPECT_NEAR(straggle_sum / 200, 1.5 * p.straggle_s,
                0.5 * p.straggle_s);
}

TEST(OsNoise, JitterFracZeroDisablesAllNoise) {
    Engine e;
    CpuParams p;
    p.jitter_frac = 0.0;
    Cpu cpu(e, 0, p, 1);
    cpu.set_runnable_competitors(5);
    EXPECT_DOUBLE_EQ(cpu.next_wake_delay(), 0.0);
    EXPECT_DOUBLE_EQ(cpu.sync_straggle(), 0.0);
}

TEST(OsNoise, NoiseScalesWithCompetitors) {
    Engine e;
    CpuParams p;
    Cpu a(e, 0, p, 1), b(e, 1, p, 1);
    a.set_runnable_competitors(1);
    b.set_runnable_competitors(4);
    double sa = 0, sb = 0;
    for (int i = 0; i < 200; ++i) {
        sa += a.sync_straggle();
        sb += b.sync_straggle();
    }
    EXPECT_GT(sb, 2.5 * sa);
}

TEST(OsNoise, WakeDelayAppliesToBlockedRecvOnLoadedNode) {
    msg::Machine m([] {
        ClusterConfig c;
        c.num_nodes = 2;
        c.cpu.wake_delay_s = 0.01; // exaggerate for visibility
        c.cpu.straggle_s = 0.0;
        return c;
    }());
    m.cluster().add_load_interval(1, 0.0, -1.0, 3);
    m.run([](msg::Rank& r) {
        if (r.id() == 0) {
            r.sleep(1.0);
            int v = 1;
            r.send(1, 0, &v, sizeof v);
        } else {
            double t0 = r.hrtime();
            int v;
            r.recv(0, 0, &v, sizeof v); // blocked: wake delay applies
            double waited = r.hrtime() - t0;
            // Send at t=1.0 + wire; delivery ~1.0001; wake adds up to 30ms.
            EXPECT_GT(waited, 1.0);
            EXPECT_LT(waited, 1.0 + 0.031 + 0.01);
        }
    });
}

TEST(OsNoise, BufferedRecvHasNoWakeDelay) {
    msg::Machine m([] {
        ClusterConfig c;
        c.num_nodes = 2;
        c.cpu.wake_delay_s = 0.05;
        c.cpu.straggle_s = 0.0;
        return c;
    }());
    m.cluster().add_load_interval(1, 0.0, -1.0, 3);
    m.run([](msg::Rank& r) {
        if (r.id() == 0) {
            int v = 1;
            r.send(1, 0, &v, sizeof v);
        } else {
            r.sleep(1.0); // message arrives while sleeping
            double t0 = r.hrtime();
            int v;
            r.recv(0, 0, &v, sizeof v); // mailbox hit: no scheduler wake
            // Only the recv CPU charge (shared 4 ways) remains.
            EXPECT_LT(r.hrtime() - t0, 0.002);
        }
    });
}

TEST(OsNoise, ControlTrafficSkipsNicAndCpu) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        const std::size_t big = 1 << 20; // 1 MiB
        std::vector<std::byte> buf(big);
        if (r.id() == 0) {
            msg::Rank::ControlScope control(r);
            double c0 = r.node().cpu().app_cpu_seconds();
            double t0 = r.hrtime();
            r.send_wire(1, msg::make_tag(msg::TagSpace::Runtime, 1),
                        buf.data(), big);
            // No CPU charged, no NIC wait.
            EXPECT_DOUBLE_EQ(r.node().cpu().app_cpu_seconds(), c0);
            EXPECT_DOUBLE_EQ(r.hrtime(), t0);
        } else {
            msg::Rank::ControlScope control(r);
            auto got =
                r.recv_wire(0, msg::make_tag(msg::TagSpace::Runtime, 1));
            EXPECT_EQ(got.size(), big);
            // Arrived after latency only, not 1MiB/12.5MBps = 84ms.
            EXPECT_LT(r.hrtime(), 0.005);
        }
    });
}

TEST(OsNoise, NonControlTrafficStillPaysFullCost) {
    msg::Machine m(quiet_cluster(2));
    m.run([](msg::Rank& r) {
        const std::size_t big = 1 << 20;
        std::vector<std::byte> buf(big);
        if (r.id() == 0) {
            r.send(1, 0, buf.data(), big);
        } else {
            r.recv(0, 0, buf.data(), big);
            EXPECT_GT(r.hrtime(), 0.08); // serialization dominates
        }
    });
}

}  // namespace
}  // namespace dynmpi::sim
