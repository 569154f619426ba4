#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

TEST(Engine, ClockAdvancesToEventTime) {
    Engine e;
    SimTime seen = -1;
    e.at(from_seconds(1.5), [&] { seen = e.now(); });
    e.run();
    EXPECT_EQ(seen, from_seconds(1.5));
    EXPECT_EQ(e.now(), from_seconds(1.5));
}

TEST(Engine, AfterSchedulesRelative) {
    Engine e;
    std::vector<double> times;
    e.at(from_seconds(1.0), [&] {
        e.after(from_seconds(0.5), [&] { times.push_back(to_seconds(e.now())); });
    });
    e.run();
    ASSERT_EQ(times.size(), 1u);
    EXPECT_DOUBLE_EQ(times[0], 1.5);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
    Engine e;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) e.after(10, chain);
    };
    e.after(10, chain);
    e.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(e.now(), 50);
}

TEST(Engine, RunUntilStopsAtBoundaryAndSetsClock) {
    Engine e;
    int fired = 0;
    e.at(10, [&] { ++fired; });
    e.at(20, [&] { ++fired; });
    e.at(30, [&] { ++fired; });
    e.run_until(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(e.now(), 20);
    EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, RejectsSchedulingInThePast) {
    Engine e;
    e.at(100, [] {});
    e.run();
    EXPECT_THROW(e.at(50, [] {}), dynmpi::Error);
    EXPECT_THROW(e.after(-1, [] {}), dynmpi::Error);
}

TEST(Engine, StepReturnsFalseWhenIdle) {
    Engine e;
    EXPECT_FALSE(e.step());
    e.at(0, [] {});
    EXPECT_TRUE(e.step());
    EXPECT_FALSE(e.step());
}

TEST(Engine, CountsFiredEvents) {
    Engine e;
    for (int i = 0; i < 7; ++i) e.at(i, [] {});
    e.run();
    EXPECT_EQ(e.events_fired(), 7u);
}

TEST(Engine, CancelledEventNeverFires) {
    Engine e;
    bool fired = false;
    auto id = e.at(10, [&] { fired = true; });
    e.cancel(id);
    e.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(e.pending_events(), 0u);
}

}  // namespace
}  // namespace dynmpi::sim
