// A simulated cluster node: CPU and competing processes.
//
// Competing processes model other users of a non-dedicated node.  They are
// compute-bound (the paper uses infinite loops) and may optionally be
// *bursty*, alternating runnable and blocked phases — the workload that
// separates dmpi_ps-style time-averaged load sensing from vmstat-style
// instantaneous sampling.  The node's one record of its load is the CPU's
// runnable-competitor count; both load sensors read it (ps_daemon.hpp).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/cpu.hpp"
#include "sim/engine.hpp"

namespace dynmpi::sim {

/// Duty cycle of a competing process.  period_s == 0 means always runnable.
struct BurstSpec {
    double period_s = 0.0;
    double duty = 1.0; ///< fraction of each period spent runnable
    bool operator==(const BurstSpec&) const = default;
};

class Node {
public:
    Node(Engine& engine, int id, CpuParams cpu_params, std::uint64_t seed,
         std::uint64_t memory_bytes = 0);

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    int id() const { return id_; }
    Cpu& cpu() { return cpu_; }
    const Cpu& cpu() const { return cpu_; }

    // ---- failure ----

    /// Halt this node forever: the load integral is folded at the crash
    /// instant and the crashed flag raised.  The network, daemon, and
    /// message layer all consult crashed() to stop serving the node.
    void crash();
    bool crashed() const { return crashed_; }

    /// Bring a crashed node back: the crashed flag drops and the incarnation
    /// counter bumps.  The CPU is already clean idle (halt() cancelled any
    /// pending completion); the daemon and rank are restarted by the cluster.
    void revive();

    /// How many times this node has been revived (0 = original incarnation).
    int generation() const { return generation_; }

    /// Physical memory available for application data (0 = unlimited).
    std::uint64_t memory_bytes() const { return memory_bytes_; }

    // ---- competing processes ----

    /// Start a competing process; returns its pid.
    int spawn_competing(BurstSpec spec = {});

    /// Terminate a competing process started with spawn_competing.
    void kill_competing(int pid);

    /// Number of competing processes currently runnable.
    int active_competing() const { return cpu_.runnable_competitors(); }

    /// ∫ active_competing dt from simulation start to now, in process-seconds
    /// (basis for windowed load averages).
    double competing_integral() const;

private:
    struct CompetingState {
        BurstSpec spec;
        bool runnable = false;
        EventId toggle_event = 0;
    };

    void set_competing_runnable(int pid, bool runnable);
    void schedule_toggle(int pid);

    Engine& engine_;
    int id_;
    std::uint64_t memory_bytes_;
    Cpu cpu_;
    int next_pid_ = 0;

    // Keyed lookups only (spawn/kill/toggle by pid); never iterated.
    std::unordered_map<int, CompetingState> burst_; // dynmpi-lint: ok(unordered-lookup)
    bool crashed_ = false;
    int generation_ = 0;

    mutable double integral_ = 0.0;
    mutable SimTime integral_last_ = 0;
};

}  // namespace dynmpi::sim
