// Engine edge cases: same-instant ordering across weak/strong events,
// cancellation during dispatch, and run()/run_until() interactions.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

TEST(EngineEdge, WeakBeforeLastStrongFiresWeakAfterStays) {
    // run() drains until the final strong event; a weak event scheduled
    // earlier at the same instant fires first (stable order), one scheduled
    // after the last strong stays queued.
    Engine e;
    std::vector<int> order;
    e.at(10, [&] { order.push_back(1); }, /*weak=*/true);
    e.at(10, [&] { order.push_back(2); });
    e.at(10, [&] { order.push_back(3); }, /*weak=*/true);
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(e.pending_events(), 1u);
}

TEST(EngineEdge, RunStopsAfterLastStrongEvenWithEarlierWeakPending) {
    Engine e;
    int weak_fired = 0;
    e.at(5, [&] { ++weak_fired; }, true);
    e.at(10, [] {});
    e.at(20, [&] { ++weak_fired; }, true); // after the last strong event
    e.run();
    EXPECT_EQ(weak_fired, 1);
    EXPECT_EQ(e.now(), 10);
    EXPECT_EQ(e.pending_events(), 1u); // the t=20 weak event is still queued
}

TEST(EngineEdge, EventCancellingALaterEvent) {
    Engine e;
    bool fired = false;
    EventId later = e.at(20, [&] { fired = true; });
    e.at(10, [&] { e.cancel(later); });
    e.run();
    EXPECT_FALSE(fired);
}

TEST(EngineEdge, EventSchedulingAtCurrentInstantRunsThisPass) {
    Engine e;
    std::vector<int> order;
    e.at(10, [&] {
        order.push_back(1);
        e.at(10, [&] { order.push_back(2); }); // same virtual instant
    });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(e.now(), 10);
}

TEST(EngineEdge, RunUntilThenRunContinues) {
    Engine e;
    std::vector<int> seen;
    e.at(10, [&] { seen.push_back(10); });
    e.at(30, [&] { seen.push_back(30); });
    e.run_until(15);
    EXPECT_EQ(seen, (std::vector<int>{10}));
    EXPECT_EQ(e.now(), 15);
    e.run();
    EXPECT_EQ(seen, (std::vector<int>{10, 30}));
}

TEST(EngineEdge, CancelledStrongEventReleasesRun) {
    Engine e;
    EventId id = e.at(100, [] {});
    e.cancel(id);
    e.run(); // must terminate immediately: no strong events remain
    EXPECT_EQ(e.now(), 0);
}

TEST(EngineEdge, ManySameTimeEventsKeepStableOrder) {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i)
        e.at(7, [&order, i] { order.push_back(i); });
    e.run();
    for (int i = 0; i < 500; ++i) ASSERT_EQ(order[(std::size_t)i], i);
}

}  // namespace
}  // namespace dynmpi::sim
