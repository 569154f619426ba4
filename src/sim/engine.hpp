// Discrete-event engine: virtual clock + event queue.
//
// The engine is single-threaded from its own point of view: events run on the
// thread that calls run*(), and everything the events touch is owned by that
// logical thread of control (the SPMD machine switches between the engine and
// rank fibers on this same thread; see mpisim/machine.hpp).
#pragma once

#include <functional>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dynmpi::sim {

class Engine {
public:
    /// Current virtual time.
    SimTime now() const { return now_; }

    /// Schedule `fn` at absolute virtual time `t` (>= now).  Weak events are
    /// background activity that never justifies keeping the simulation alive
    /// on its own (daemon ticks, load-burst toggles).
    EventId at(SimTime t, std::function<void()> fn, bool weak = false);

    /// Schedule `fn` after a delay from now.
    EventId after(SimTime delay, std::function<void()> fn, bool weak = false);

    void cancel(EventId id) { queue_.cancel(id); }

    /// Run events until no *strong* events remain (weak background events may
    /// still be pending).
    void run();

    /// True while at least one strong event is pending.
    bool has_strong() const { return queue_.strong_count() > 0; }

    /// Run events with time <= t, then set the clock to t.
    void run_until(SimTime t);

    /// Process a single event if one exists; returns false when idle.
    bool step();

    std::size_t pending_events() const { return queue_.size(); }
    std::uint64_t events_fired() const { return fired_; }
    /// High-water mark of the pending-event count (queue pressure).
    std::size_t peak_pending_events() const { return peak_pending_; }

private:
    EventQueue queue_;
    SimTime now_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t peak_pending_ = 0;
};

}  // namespace dynmpi::sim
