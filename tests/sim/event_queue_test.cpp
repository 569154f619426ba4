#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) q.schedule(5, [&, i] { order.push_back(i); });
    while (!q.empty()) q.pop().fn();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
    EventQueue q;
    bool fired = false;
    auto id = q.schedule(10, [&] { fired = true; });
    q.cancel(id);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
    EventQueue q;
    q.schedule(1, [] {});
    q.cancel(9999);  // never scheduled
    q.cancel(0);     // reserved null id
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    auto id = q.schedule(2, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(3); });
    q.cancel(id);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeReportsEarliestLive) {
    EventQueue q;
    auto early = q.schedule(5, [] {});
    q.schedule(9, [] {});
    EXPECT_EQ(q.next_time(), 5);
    q.cancel(early);
    EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, RejectsNegativeTime) {
    EventQueue q;
    EXPECT_THROW(q.schedule(-1, [] {}), dynmpi::Error);
}

TEST(EventQueue, PopOnEmptyThrows) {
    EventQueue q;
    EXPECT_THROW(q.pop(), dynmpi::Error);
}

TEST(EventQueue, SizeExcludesCancelled) {
    EventQueue q;
    auto a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelAfterFireLeavesPendingCountAlone) {
    // Cancelling an id that already fired is a no-op: it must not count
    // against the events still pending.
    Engine e;
    const EventId first = e.at(1, [] {});
    e.at(2, [] {});
    ASSERT_TRUE(e.step());
    e.cancel(first);
    EXPECT_EQ(e.pending_events(), 1u);
    EXPECT_TRUE(e.has_strong());
    ASSERT_TRUE(e.step());
    EXPECT_EQ(e.pending_events(), 0u);
    EXPECT_FALSE(e.step());
}

TEST(EventQueue, StaleIdDoesNotCancelTheEventReusingItsSlot) {
    EventQueue q;
    const EventId a = q.schedule(1, [] {});
    q.cancel(a);
    EXPECT_TRUE(q.empty());
    bool fired = false;
    const EventId b = q.schedule(2, [&] { fired = true; });
    EXPECT_NE(a, b);
    q.cancel(a); // stale: names the cancelled scheduling, not b
    ASSERT_EQ(q.size(), 1u);
    q.pop().fn();
    EXPECT_TRUE(fired);
    q.cancel(b); // already fired
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.strong_count(), 0u);
}

TEST(EventQueue, RandomOperationsMatchOrderedMapModel) {
    // Model: live events keyed by (time, schedule order), which is exactly
    // the queue's documented firing order.
    struct Live {
        int label;
        bool weak;
        EventId id;
    };
    using Key = std::pair<SimTime, std::uint64_t>;
    std::map<Key, Live> model;
    std::map<EventId, Key> live_ids;  // id -> model key, live events only
    std::vector<EventId> stale_ids;   // fired or cancelled
    std::size_t model_strong = 0;
    std::uint64_t order = 0;
    std::vector<int> fired;

    EventQueue q;
    Rng rng(20260417);
    SimTime now = 0;
    int label = 0;
    int reused_slot_cancels = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rng.next_below(100);
        if (op < 42) {
            // Schedule; a narrow time window makes ties common.
            const SimTime t = now + static_cast<SimTime>(rng.next_below(8));
            const bool weak = rng.next_below(3) == 0;
            const int l = label++;
            const EventId id =
                q.schedule(t, [&fired, l] { fired.push_back(l); }, weak);
            ASSERT_NE(id, 0u);
            ASSERT_EQ(live_ids.count(id), 0u);
            const Key k{t, order++};
            model.emplace(k, Live{l, weak, id});
            live_ids.emplace(id, k);
            if (!weak) ++model_strong;
        } else if (op < 54 && !live_ids.empty()) {
            // Cancel a live event.
            auto it = live_ids.begin();
            std::advance(it, static_cast<long>(rng.next_below(live_ids.size())));
            const Live ev = model.at(it->second);
            if (!ev.weak) --model_strong;
            model.erase(it->second);
            stale_ids.push_back(it->first);
            live_ids.erase(it);
            q.cancel(stale_ids.back());
        } else if (op < 68 && !stale_ids.empty()) {
            // Cancel a fired or cancelled id: a no-op, also when its slot
            // now holds a live event.
            const EventId id = stale_ids[rng.next_below(stale_ids.size())];
            for (const auto& [live, key] : live_ids)
                if ((live & 0xffffffffu) == (id & 0xffffffffu))
                    ++reused_slot_cancels;
            q.cancel(id);
        } else if (op < 71) {
            // Cancel an id the queue never issued.
            const EventId unknown[] = {0, rng.next_u64() & 0xffffffffu,
                                       (EventId{1} << 32) | 0xfffffff0u};
            q.cancel(unknown[rng.next_below(3)]);
        } else if (!model.empty()) {
            const auto [key, ev] = *model.begin();
            ASSERT_EQ(q.next_time(), key.first);
            auto f = q.pop();
            ASSERT_EQ(f.time, key.first);
            f.fn();
            ASSERT_EQ(fired.back(), ev.label);
            now = f.time;
            if (!ev.weak) --model_strong;
            model.erase(model.begin());
            live_ids.erase(ev.id);
            stale_ids.push_back(ev.id);
        }
        ASSERT_EQ(q.size(), model.size()) << "step " << step;
        ASSERT_EQ(q.strong_count(), model_strong) << "step " << step;
        ASSERT_EQ(q.empty(), model.empty()) << "step " << step;
        if (!model.empty()) {
            ASSERT_EQ(q.next_time(), model.begin()->first.first);
        }
    }
    EXPECT_GT(reused_slot_cancels, 0);
    EXPECT_GT(fired.size(), 1000u);
}

}  // namespace
}  // namespace dynmpi::sim
