// Deterministic event queue.
//
// Events at equal timestamps fire in schedule order (sequence-number
// tie-breaking), so a simulation run is a pure function of its inputs.
//
// Layout: a binary heap of small {time, seq, slot} keys over a slot table
// that owns the callbacks.  Slots are recycled through a free list, and each
// slot carries a generation that is bumped whenever it is released, so an
// EventId (generation and slot) names one scheduling only.  Cancellation is
// O(1) and lazy: the slot is marked and its key skipped when it reaches the
// top of the heap.  Nothing on the schedule/pop path allocates once the heap
// and slot table have grown to the run's peak.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace dynmpi::sim {

/// Identifier for a scheduled event, usable with cancel().  Never 0, so 0
/// can stand for "no event".
using EventId = std::uint64_t;

/// Priority queue of (time, seq, action) with stable ordering.
///
/// Events are *strong* by default.  Recurring background activity (daemon
/// ticks, load-burst toggles) is scheduled *weak*: weak events fire normally
/// while the simulation is moving, but a run loop may stop once only weak
/// events remain — otherwise self-rescheduling daemons would keep the clock
/// ticking forever.
class EventQueue {
public:
    /// Schedule `fn` to fire at absolute time `t`.  Returns an id.
    EventId schedule(SimTime t, std::function<void()> fn, bool weak = false);

    /// Number of live strong events.
    std::size_t strong_count() const { return strong_; }

    /// Cancel a previously scheduled event.  Cancelling an already-fired,
    /// already-cancelled or unknown id is a no-op.
    void cancel(EventId id);

    /// True when no live events remain.
    bool empty() const { return live_ == 0; }

    /// Time of the earliest live event.  Precondition: !empty().
    SimTime next_time();

    /// Pop and return the earliest live event.  Precondition: !empty().
    struct Fired {
        SimTime time;
        std::function<void()> fn;
    };
    Fired pop();

    /// Number of live (scheduled, not yet fired or cancelled) events.
    std::size_t size() const { return live_; }

private:
    struct Key {
        SimTime time;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    struct Later {
        bool operator()(const Key& a, const Key& b) const {
            if (a.time != b.time) return a.time > b.time;
            return a.seq > b.seq;
        }
    };
    struct Slot {
        std::function<void()> fn;
        std::uint32_t generation = 1; ///< bumped on release; never 0
        bool weak = false;
        bool cancelled = false;
    };

    void drop_cancelled_head();
    void release(std::uint32_t slot);

    std::vector<Key> heap_; ///< ordered by Later (std::push_heap/pop_heap)
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_; ///< released slots, reused LIFO
    std::uint64_t next_seq_ = 1;
    std::size_t live_ = 0;
    std::size_t strong_ = 0;
};

}  // namespace dynmpi::sim
