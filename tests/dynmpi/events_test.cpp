// The adaptation event log: every decision leaves a structured record in
// the order it happened.
#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "dynmpi/report.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

RuntimeStats run_with_load(int nodes, RuntimeOptions o, int cycles,
                           double row_cost,
                           std::function<void(msg::Machine&)> setup) {
    msg::Machine m(fast_cluster(nodes));
    setup(m);
    RuntimeStats out;
    m.run([&](msg::Rank& r) {
        o.calibrate = false;
        Runtime rt(r, 48, o);
        rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(0, 48, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int c = 0; c < cycles; ++c) {
            rt.begin_cycle();
            if (rt.participating())
                rt.run_phase(ph, std::vector<double>(
                                     static_cast<std::size_t>(
                                         rt.my_iters(ph).count()),
                                     row_cost));
            rt.end_cycle();
        }
        if (r.id() == 0) out = rt.stats();
    });
    return out;
}

TEST(Events, LoadChangeThenRedistributionRecorded) {
    RuntimeOptions o;
    o.enable_removal = false;
    auto stats = run_with_load(4, o, 60, 5e-3, [](msg::Machine& m) {
        m.cluster().add_load_interval(1, 0.5, -1.0, 2);
    });
    ASSERT_GE(stats.events.size(), 2u);
    EXPECT_EQ(stats.events[0].kind, AdaptationEvent::Kind::LoadChange);
    EXPECT_EQ(stats.events[1].kind, AdaptationEvent::Kind::Redistributed);
    EXPECT_GT(stats.events[1].cycle, stats.events[0].cycle);
    EXPECT_NE(stats.events[1].detail.find("/"), std::string::npos);
}

TEST(Events, ImmaterialChangeRecordsSkip) {
    // The same load lands on BOTH nodes at once: detection fires, but the
    // balanced shares do not move — the decision must be visibly Skipped.
    RuntimeOptions o;
    o.enable_removal = false;
    auto stats = run_with_load(2, o, 80, 5e-3, [](msg::Machine& m) {
        m.cluster().add_load_interval(0, 0.5, -1.0, 1);
        m.cluster().add_load_interval(1, 0.5, -1.0, 1);
    });
    bool skipped = false, redistributed = false;
    for (const auto& e : stats.events) {
        if (e.kind == AdaptationEvent::Kind::Skipped) skipped = true;
        if (e.kind == AdaptationEvent::Kind::Redistributed)
            redistributed = true;
    }
    EXPECT_TRUE(skipped);
    EXPECT_FALSE(redistributed);
}

TEST(Events, DropAndReaddRecordedInOrder) {
    RuntimeOptions o;
    o.enable_removal = true;
    o.force_drop_loaded = true;
    auto stats = run_with_load(4, o, 700, 2e-4, [](msg::Machine& m) {
        m.cluster().add_load_interval(1, 0.3, 1.5, 4);
    });
    std::vector<AdaptationEvent::Kind> kinds;
    for (const auto& e : stats.events) kinds.push_back(e.kind);
    auto find_kind = [&](AdaptationEvent::Kind k) {
        for (std::size_t i = 0; i < kinds.size(); ++i)
            if (kinds[i] == k) return static_cast<int>(i);
        return -1;
    };
    int drop = find_kind(AdaptationEvent::Kind::Dropped);
    ASSERT_GE(drop, 0) << render_events(stats);
    // Re-add appears on the REJOINING node's log; rank 0 stays active, so
    // here we check the dropped node's own record via a second run if rank 0
    // is the victim.  In this setup node 1 is dropped, so rank 0 records the
    // Dropped event and a later Redistributed for the re-add.
    int redist_after = -1;
    for (std::size_t i = static_cast<std::size_t>(drop) + 1;
         i < kinds.size(); ++i)
        if (kinds[i] == AdaptationEvent::Kind::Redistributed)
            redist_after = static_cast<int>(i);
    EXPECT_GE(redist_after, 0) << render_events(stats);
}

TEST(Events, RenderEventsIsHumanReadable) {
    RuntimeOptions o;
    o.enable_removal = false;
    auto stats = run_with_load(2, o, 60, 5e-3, [](msg::Machine& m) {
        m.cluster().add_load_interval(1, 0.5, -1.0, 1);
    });
    std::string s = render_events(stats);
    EXPECT_NE(s.find("load-change"), std::string::npos);
    EXPECT_NE(s.find("redistributed"), std::string::npos);
    EXPECT_NE(s.find("t="), std::string::npos);
}

TEST(Events, QuietRunHasNoEvents) {
    RuntimeOptions o;
    auto stats = run_with_load(2, o, 20, 1e-3, [](msg::Machine&) {});
    EXPECT_TRUE(stats.events.empty());
    EXPECT_EQ(render_events(stats), "(no adaptation events)\n");
}

}  // namespace
}  // namespace dynmpi
