#include "mpisim/machine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cluster_fixture.hpp"
#include "mpisim/rank.hpp"
#include "sim/fault_plan.hpp"
#include "support/error.hpp"

namespace dynmpi::msg {
namespace {

TEST(Machine, RunsEveryRankExactlyOnce) {
    Machine m(quiet_cluster(4));
    std::vector<int> ran(4, 0);
    m.run([&](Rank& r) { ran[static_cast<size_t>(r.id())]++; });
    EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Machine, RanksSeeCorrectIdAndSize) {
    Machine m(quiet_cluster(3));
    m.run([](Rank& r) {
        EXPECT_GE(r.id(), 0);
        EXPECT_LT(r.id(), 3);
        EXPECT_EQ(r.size(), 3);
    });
}

TEST(Machine, ComputeAdvancesVirtualTime) {
    Machine m(quiet_cluster(2));
    m.run([](Rank& r) { r.compute(1.0 + r.id()); });
    // Ranks compute in parallel: total time = max over ranks.
    EXPECT_NEAR(m.elapsed_seconds(), 2.0, 1e-6);
}

TEST(Machine, SleepIsNotCpuTime) {
    Machine m(quiet_cluster(1));
    double cpu = -1;
    m.run([&](Rank& r) {
        r.sleep(5.0);
        cpu = r.node().cpu().app_cpu_seconds();
    });
    EXPECT_NEAR(m.elapsed_seconds(), 5.0, 1e-9);
    EXPECT_NEAR(cpu, 0.0, 1e-9);
}

TEST(Machine, RankExceptionPropagates) {
    Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([](Rank& r) {
        if (r.id() == 1) throw std::runtime_error("rank boom");
        r.compute(0.1);
    }),
                 std::runtime_error);
}

TEST(Machine, DeadlockDetectedAndReported) {
    Machine m(quiet_cluster(2));
    try {
        m.run([](Rank& r) {
            if (r.id() == 0) {
                double buf;
                r.recv(1, 7, &buf, sizeof buf); // never sent
            }
        });
        FAIL() << "expected deadlock error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("0"), std::string::npos);
    }
}

TEST(Machine, SecondRunRejected) {
    Machine m(quiet_cluster(1));
    m.run([](Rank&) {});
    EXPECT_THROW(m.run([](Rank&) {}), Error);
}

TEST(Machine, CompetingProcessSlowsOnlyItsNode) {
    Machine m(quiet_cluster(2));
    m.cluster().add_load_interval(1, 0.0, -1.0);
    std::vector<double> end_times(2);
    m.run([&](Rank& r) {
        r.compute(2.0);
        end_times[static_cast<size_t>(r.id())] = r.hrtime();
    });
    EXPECT_NEAR(end_times[0], 2.0, 1e-6);
    EXPECT_NEAR(end_times[1], 4.0, 1e-6);
}

TEST(Machine, DeterministicAcrossRuns) {
    auto run_once = [] {
        Machine m(quiet_cluster(4));
        m.cluster().add_load_interval(2, 0.5, 1.5);
        m.run([](Rank& r) {
            for (int i = 0; i < 5; ++i) {
                r.compute(0.1);
                int right = (r.id() + 1) % r.size();
                int left = (r.id() + r.size() - 1) % r.size();
                double x = r.hrtime();
                r.send(right, i, &x, sizeof x);
                double y;
                r.recv(left, i, &y, sizeof y);
            }
        });
        return m.elapsed_seconds();
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Machine, DestructorCleansUpAfterFailure) {
    // A machine whose run() threw must still destruct without hanging.
    auto m = std::make_unique<Machine>(quiet_cluster(2));
    EXPECT_THROW(m->run([](Rank& r) {
        if (r.id() == 0) throw std::runtime_error("die");
        double buf;
        r.recv(0, 1, &buf, sizeof buf);
    }),
                 std::runtime_error);
    m.reset(); // must not deadlock
    SUCCEED();
}

// ---- fiber lifecycle ----

/// Counts its own destruction: proves a rank's stack was unwound.
struct Guard {
    explicit Guard(int& destroyed) : destroyed_(destroyed) {}
    ~Guard() { ++destroyed_; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

private:
    int& destroyed_;
};

/// Fills a 1 MiB stack frame, blocks (switching fibers with the frame
/// live), then sums it.
long big_frame_sum(Rank& r) {
    std::array<unsigned char, std::size_t{1} << 20> frame;
    std::memset(frame.data(), r.id() + 1, frame.size());
    r.sleep(0.5);
    long sum = 0;
    for (unsigned char b : frame) sum += b;
    return sum;
}

TEST(Machine, RankWithOneMegabyteStackFrameRuns) {
    Machine m(quiet_cluster(3));
    std::vector<long> sums(3);
    m.run([&](Rank& r) {
        sums[static_cast<size_t>(r.id())] = big_frame_sum(r);
    });
    for (long id = 0; id < 3; ++id)
        EXPECT_EQ(sums[static_cast<size_t>(id)], (id + 1) << 20);
    EXPECT_NEAR(m.elapsed_seconds(), 0.5, 1e-9);
}

TEST(Machine, FailureUnwindsEveryOtherRankBeforeRethrow) {
    Machine m(quiet_cluster(4));
    int destroyed = 0;
    try {
        m.run([&](Rank& r) {
            Guard g(destroyed);
            if (r.id() == 1) {
                r.compute(0.1);
                throw std::runtime_error("rank 1 fails");
            }
            double buf;
            r.recv(1, 3, &buf, sizeof buf); // never sent
        });
        FAIL() << "expected the rank failure";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "rank 1 fails");
        // The Machine is still alive: run() itself unwound the blocked ranks.
        EXPECT_EQ(destroyed, 4);
    }
}

TEST(Machine, DeadlockNamesStuckRanksAndUnwindsThem) {
    Machine m(quiet_cluster(4));
    int destroyed = 0;
    try {
        m.run([&](Rank& r) {
            Guard g(destroyed);
            if (r.id() % 2 == 1) {
                double buf;
                r.recv(0, 9, &buf, sizeof buf); // never sent
            }
        });
        FAIL() << "expected deadlock error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("blocked ranks: 1 3"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(destroyed, 4);
    }
}

// A crash that leaves the survivors waiting on each other is a deadlock,
// and the error names the crashed node as the likely cause.
TEST(Machine, DeadlockAfterCrashNamesCrashedNodes) {
    Machine m(quiet_cluster(3));
    m.cluster().install_faults(sim::FaultPlan::parse("crash node=2 t=0.5\n"));
    try {
        m.run([](Rank& r) {
            if (r.id() == 2) {
                r.sleep(1.0); // the crash unwinds it here
                return;
            }
            double buf;
            r.recv(1 - r.id(), 9, &buf, sizeof buf); // neither ever sends
        });
        FAIL() << "expected deadlock error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("blocked ranks: 0 1 (crashed nodes: 2 "),
                  std::string::npos)
            << what;
    }
}

TEST(Machine, SuspendedCatchHandlerKeepsItsOwnException) {
    // Each rank blocks inside its own catch handler while the other throws
    // and catches; a bare rethrow must still find the rank's own exception.
    Machine m(quiet_cluster(2));
    std::vector<std::string> rethrown(2);
    m.run([&](Rank& r) {
        try {
            r.sleep(0.1 * r.id());
            throw std::runtime_error("from rank " + std::to_string(r.id()));
        } catch (const std::runtime_error&) {
            r.sleep(1.0); // the other rank throws and catches meanwhile
            try {
                throw;
            } catch (const std::runtime_error& e) {
                rethrown[static_cast<size_t>(r.id())] = e.what();
            }
        }
    });
    EXPECT_EQ(rethrown[0], "from rank 0");
    EXPECT_EQ(rethrown[1], "from rank 1");
}

TEST(Machine, ConcurrentMachinesOnTwoThreadsAgree) {
    struct Outcome {
        double elapsed = -1.0;
        Machine::TrafficStats traffic;
        std::string error;
    };
    auto run_once = [](Outcome& out) {
        try {
            Machine m(quiet_cluster(8));
            m.cluster().add_load_interval(3, 0.2, 0.9);
            m.run([](Rank& r) {
                const int right = (r.id() + 1) % r.size();
                const int left = (r.id() + r.size() - 1) % r.size();
                for (int i = 0; i < 20; ++i) {
                    r.compute(0.01 * (1 + r.id() % 3));
                    std::vector<double> row(64, r.hrtime());
                    r.send(right, i, row.data(), row.size() * sizeof(double));
                    r.recv(left, i, row.data(), row.size() * sizeof(double));
                    r.sleep(1e-3);
                }
            });
            out.elapsed = m.elapsed_seconds();
            out.traffic = m.traffic();
        } catch (const std::exception& e) {
            out.error = e.what();
        }
    };
    Outcome serial, a, b;
    run_once(serial);
    std::thread ta([&] { run_once(a); });
    std::thread tb([&] { run_once(b); });
    ta.join();
    tb.join();
    for (const Outcome* o : {&serial, &a, &b}) {
        ASSERT_EQ(o->error, "");
        EXPECT_DOUBLE_EQ(o->elapsed, serial.elapsed);
        for (std::size_t s = 0; s < 3; ++s) {
            EXPECT_EQ(o->traffic.messages[s], serial.traffic.messages[s]);
            EXPECT_EQ(o->traffic.bytes[s], serial.traffic.bytes[s]);
        }
        EXPECT_EQ(o->traffic.control_messages,
                  serial.traffic.control_messages);
        EXPECT_EQ(o->traffic.control_bytes, serial.traffic.control_bytes);
    }
    EXPECT_GT(serial.traffic.total_messages(), 0u);
}

TEST(Machine, TwentyCrashReviveCyclesUnwindEveryIncarnation) {
    Machine m(quiet_cluster(2));
    std::string script;
    for (int k = 0; k < 20; ++k) {
        script += "crash node=1 t=" + std::to_string(1.05 + 2.0 * k) + "\n";
        script += "revive node=1 t=" + std::to_string(1.55 + 2.0 * k) + "\n";
    }
    m.cluster().install_faults(sim::FaultPlan::parse(script));
    std::vector<int> started(2, 0), finished(2, 0);
    int destroyed = 0;
    m.run([&](Rank& r) {
        Guard g(destroyed);
        ++started[static_cast<size_t>(r.id())];
        for (int k = 0; k < 450; ++k) r.sleep(0.1); // outlasts the script
        ++finished[static_cast<size_t>(r.id())];
    });
    EXPECT_EQ(started, (std::vector<int>{1, 21}));
    EXPECT_EQ(finished, (std::vector<int>{1, 1}));
    EXPECT_EQ(destroyed, 22); // every incarnation's guard, crashed or not
    EXPECT_EQ(m.cluster().node_generation(1), 20);
}

TEST(Machine, ReviveOfARankThatFailedKeepsItsErrorForRun) {
    // Rank 1's first incarnation fails before its node crashes; the revive
    // must not replace that state with a fresh incarnation (which would
    // run cleanly), so run() still rethrows the error.
    Machine m(quiet_cluster(2));
    m.cluster().install_faults(
        sim::FaultPlan::parse("crash node=1 t=0.5\nrevive node=1 t=1\n"));
    int started = 0;
    EXPECT_THROW(m.run([&](Rank& r) {
        if (r.id() == 0) {
            r.sleep(2.0);
            return;
        }
        ++started;
        if (r.node().generation() == 0) throw std::runtime_error("rank boom");
    }),
                 std::runtime_error);
    EXPECT_EQ(started, 1);
}

// ---- revocation and peer failure ----

TEST(Machine, FailureExceptionsNameThemselves) {
    EXPECT_STREQ(MachineAborted{}.what(), "simulation machine aborted");
    EXPECT_STREQ(NodeCrashed{}.what(), "node crashed");
    EXPECT_STREQ(PeerFailure{3}.what(), "peer rank failed");
    EXPECT_STREQ(EpochRevoked{}.what(), "control epoch revoked");
}

TEST(Machine, CrashRevokesOnlyControlPlaneRecvs) {
    // Ranks 1 and 2 wait in a control-plane recv from rank 0, rank 3 in a
    // user-plane recv from rank 0.  Node 4 crashes at t=1: the revocation
    // wakes ranks 1 and 2 although their peer is alive, and rank 3 stays
    // blocked until rank 0 sends it its message.
    Machine m(quiet_cluster(5));
    m.cluster().install_faults(sim::FaultPlan::parse("crash node=4 t=1"));
    std::vector<int> revoked(5, 0);
    std::vector<double> woke(5, -1.0);
    m.run([&](Rank& r) {
        const auto i = static_cast<std::size_t>(r.id());
        if (r.id() == 0) {
            r.sleep(2.0);
            const int v = 42;
            r.send(3, 5, &v, sizeof v);
        } else if (r.id() == 3) {
            int v = 0;
            r.recv(0, 5, &v, sizeof v);
            EXPECT_EQ(v, 42);
            woke[i] = r.hrtime();
        } else if (r.id() == 4) {
            r.sleep(5.0); // crashes in here
        } else {
            try {
                r.recv_wire(0, make_tag(TagSpace::Runtime, 7));
            } catch (const EpochRevoked&) {
                ++revoked[i];
                woke[i] = r.hrtime();
            }
        }
    });
    EXPECT_EQ(m.revoke_epoch(), 1u);
    EXPECT_EQ(revoked, (std::vector<int>{0, 1, 1, 0, 0}));
    EXPECT_NEAR(woke[1], 1.0, 1e-9);
    EXPECT_NEAR(woke[2], 1.0, 1e-9);
    EXPECT_GT(woke[3], 2.0); // still blocked through the revocation
}

TEST(Machine, UserRecvFromCrashedPeerThrowsPeerFailure) {
    // Rank 1 is already blocked in a user-plane recv from rank 0 when node
    // 0 crashes: it wakes with a local failure naming the dead peer.
    Machine m(quiet_cluster(2));
    m.cluster().install_faults(sim::FaultPlan::parse("crash node=0 t=0.5"));
    int failed_peer = -1;
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            r.sleep(1.0);
            return;
        }
        int v = 0;
        try {
            r.recv(0, 5, &v, sizeof v);
        } catch (const PeerFailure& e) {
            failed_peer = e.peer();
        }
    });
    EXPECT_EQ(failed_peer, 0);
}

// ---- per-fiber floating-point control state ----

/// 1/3 in the current rounding mode (volatile: computed at run time).
double one_third() {
    volatile double one = 1.0;
    volatile double three = 3.0;
    return one / three;
}

/// Restores round-to-nearest on the test thread however the test exits.
struct RoundingReset {
    ~RoundingReset() { std::fesetround(FE_TONEAREST); }
};

TEST(Machine, EveryFiberKeepsItsOwnRoundingMode) {
    constexpr std::array<int, 4> kModes = {FE_TONEAREST, FE_UPWARD,
                                           FE_DOWNWARD, FE_TOWARDZERO};
    std::array<double, 4> want{};
    RoundingReset reset;
    for (std::size_t i = 0; i < kModes.size(); ++i) {
        ASSERT_EQ(std::fesetround(kModes[i]), 0);
        want[i] = one_third();
    }
    ASSERT_NE(want[1], want[2]); // the probe does see the rounding mode

    // The engine runs in a mode no rank uses; new fibers must not inherit
    // it, and the ranks' modes must not leak back into it.
    ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);
    Machine m(quiet_cluster(4));
    std::vector<int> start_mode(4, -1), mismatches(4, 0);
    m.run([&](Rank& r) {
        const auto id = static_cast<std::size_t>(r.id());
        start_mode[id] = std::fegetround();
        std::fesetround(kModes[id]);
        for (int i = 0; i < 300; ++i) {
            // Staggered sleeps interleave the ranks differently each round.
            r.sleep(1e-3 * (1 + (r.id() + i) % 3));
            if (std::fegetround() != kModes[id] || one_third() != want[id])
                ++mismatches[id];
        }
    });
    EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
    EXPECT_EQ(start_mode, (std::vector<int>(4, FE_TONEAREST)));
    EXPECT_EQ(mismatches, (std::vector<int>(4, 0)));
}

TEST(Machine, RevivedRankStartsWithDefaultRoundingMode) {
    RoundingReset reset;
    Machine m(quiet_cluster(2));
    m.cluster().install_faults(sim::FaultPlan::parse(
        "crash node=1 t=1.05\nrevive node=1 t=1.55\n"));
    std::vector<int> start_modes; // rank 1, one entry per incarnation
    m.run([&](Rank& r) {
        if (r.id() == 1) start_modes.push_back(std::fegetround());
        std::fesetround(FE_UPWARD);
        for (int k = 0; k < 30; ++k) r.sleep(0.1);
    });
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(start_modes, (std::vector<int>{FE_TONEAREST, FE_TONEAREST}));
}

}  // namespace
}  // namespace dynmpi::msg
