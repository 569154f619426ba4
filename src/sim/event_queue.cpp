#include "sim/event_queue.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dynmpi::sim {

namespace {
constexpr EventId make_id(std::uint32_t generation, std::uint32_t slot) {
    return (EventId{generation} << 32) | slot;
}
}  // namespace

EventId EventQueue::schedule(SimTime t, std::function<void()> fn, bool weak) {
    DYNMPI_REQUIRE(t >= 0, "event time must be non-negative");
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.weak = weak;
    s.cancelled = false;
    heap_.push_back(Key{t, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    if (!weak) ++strong_;
    return make_id(s.generation, slot);
}

void EventQueue::cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    // A fired or cancelled scheduling left the slot with a newer generation
    // (or still marked cancelled), so a stale id matches nothing.
    if (s.generation != static_cast<std::uint32_t>(id >> 32) || s.cancelled)
        return;
    s.cancelled = true;
    s.fn = nullptr;
    --live_;
    if (!s.weak) --strong_;
}

void EventQueue::release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (++s.generation == 0) s.generation = 1;
    free_.push_back(slot);
}

void EventQueue::drop_cancelled_head() {
    while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
        release(heap_.front().slot);
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
}

SimTime EventQueue::next_time() {
    drop_cancelled_head();
    DYNMPI_REQUIRE(!heap_.empty(), "next_time on empty queue");
    return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
    drop_cancelled_head();
    DYNMPI_REQUIRE(!heap_.empty(), "pop on empty queue");
    const Key top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    Slot& s = slots_[top.slot];
    Fired f{top.time, std::move(s.fn)};
    s.fn = nullptr;
    --live_;
    if (!s.weak) --strong_;
    release(top.slot);
    return f;
}

}  // namespace dynmpi::sim
