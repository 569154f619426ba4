// Load-sensing daemons.
//
// Both sensors read one fact per node: how many competing processes are
// runnable (the CPU's competitor count, Node::active_competing).
//
// PsDaemon models the paper's dmpi_ps: a per-node daemon that wakes every
// second and reports how many processes are competing for the CPU.  Unlike
// vmstat-based sensing it (a) always includes the monitored application and
// (b) integrates the count over the whole window (Node::competing_integral)
// rather than sampling an instant, so a competing process that happens to be
// blocked at the sampling instant is still accounted for in proportion to
// its actual demand.
//
// VmstatSampler is the unreliable baseline the paper rejects: the count at
// one instant, which misses processes that have voluntarily relinquished
// the CPU (e.g. blocked at a receive).
#pragma once

#include <deque>
#include <vector>

#include "sim/engine.hpp"
#include "sim/node.hpp"

namespace dynmpi::sim {

class PsDaemon {
public:
    struct Sample {
        SimTime time = 0;
        double avg_competing = 0.0; ///< time-weighted over the last period
    };

    /// Starts ticking immediately; first sample lands one period in.
    PsDaemon(Engine& engine, Node& node, SimTime period = kNsPerSec);

    PsDaemon(const PsDaemon&) = delete;
    PsDaemon& operator=(const PsDaemon&) = delete;

    /// Time-weighted average number of competing runnable processes over the
    /// most recent completed window (0 before the first sample).
    double avg_competing() const;

    /// Integer load as dmpi_ps reports it: competing processes rounded to the
    /// nearest integer, plus one for the monitored application itself.
    int reported_load() const;

    SimTime last_sample_time() const;
    const std::vector<Sample>& history() const { return history_; }

    SimTime period() const { return period_; }

    // ---- fault hooks ----

    /// Silently discard new samples (the daemon still ticks, so it recovers
    /// cleanly when the fault window closes).
    void set_dropping(bool dropping) { dropping_ = dropping; }

    /// Serve a value captured at enable time with *fresh* timestamps — the
    /// pathology a pure staleness check cannot see.
    void set_frozen(bool frozen);

    /// New samples become visible `delay_s` seconds late, keeping their
    /// original timestamps (so staleness checks see an aging report).
    /// 0 disables and flushes nothing early — pending samples still land.
    void set_report_delay(double delay_s);

    /// Restart the tick loop after a node revival.  The integral baseline is
    /// resynced so the first post-revival sample covers only its own window,
    /// not the whole dead interval.
    void restart();

private:
    void tick();

    Engine& engine_;
    Node& node_;
    SimTime period_;
    double prev_integral_ = 0.0;
    std::vector<Sample> history_;

    bool dropping_ = false;
    bool frozen_ = false;
    double frozen_value_ = 0.0;
    double delay_s_ = 0.0;
    std::deque<Sample> pending_; ///< delayed samples not yet visible
};

/// vmstat-style instantaneous sampler (baseline for the §4.2 comparison).
class VmstatSampler {
public:
    explicit VmstatSampler(Node& node) : node_(node) {}

    /// Count of runnable competing processes *right now*, excluding the
    /// monitored application (it does not show as runnable while blocked at
    /// a receive — exactly the failure mode the paper describes).
    int sample_runnable() const { return node_.active_competing(); }

private:
    Node& node_;
};

}  // namespace dynmpi::sim
