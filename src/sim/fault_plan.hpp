// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is a list of timed fault specifications — node crashes,
// permanent slowdowns, load-report pathologies (dropped, frozen, delayed
// dmpi_ps samples), cluster-wide latency spikes, and transient send
// failures.  Plans parse from a small line-based script format (see
// docs/FAULTS.md) so benches and the quickstart can replay hostile
// histories from a file.
//
// A FaultInjector arms a plan against a Cluster: every fault becomes a
// weak engine event at its virtual injection time, so fault runs are as
// deterministic as fault-free ones — identical seed + identical script
// gives a byte-identical trace.
#pragma once

#include <string>
#include <vector>

#include "sim/cluster.hpp"
#include "support/trace.hpp"

namespace dynmpi::sim {

enum class FaultKind {
    Crash,        ///< node halts: CPU, daemon, NIC all stop (until revived)
    Slowdown,     ///< node's CPU speed multiplied by `value`
    ReportDrop,   ///< dmpi_ps samples silently discarded
    ReportFreeze, ///< dmpi_ps serves a stale value with fresh timestamps
    ReportDelay,  ///< dmpi_ps samples arrive `value` seconds late
    NetDelay,     ///< cluster-wide extra one-way latency of `value` seconds
    SendLoss,     ///< next `count` data-plane sends from `node` fail
    Revive,       ///< bring a crashed node back: CPU, daemon, NIC restart
};

const char* fault_kind_name(FaultKind kind);

struct FaultSpec {
    FaultKind kind = FaultKind::Crash;
    double t = 0.0;          ///< injection time, virtual seconds
    int node = -1;           ///< target node (-1 = cluster-wide, NetDelay)
    double duration_s = 0.0; ///< window length; <= 0 means "forever"
    double value = 0.0;      ///< slow factor / delay seconds / extra latency
    int count = 0;           ///< SendLoss: number of doomed sends

    bool operator==(const FaultSpec&) const = default;
};

class FaultPlan {
public:
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /// Parse the line-based script format; throws Error on malformed input.
    static FaultPlan parse(const std::string& text);

    /// Read and parse a script file; throws Error if unreadable.
    static FaultPlan load(const std::string& path);

    /// Render back to the script format (parse/to_string round-trips).
    std::string to_string() const;

    /// Throws Error if any fault targets a node outside [0, num_nodes) or
    /// carries nonsensical parameters for its kind.
    void validate(int num_nodes) const;
};

/// Arms a FaultPlan against a cluster.  Construction schedules every fault;
/// the injector must outlive the engine run (Cluster::install_faults keeps
/// it alive).  Each injection (and each window expiry) emits a fault.inject
/// (fault.clear) trace event; each injection bumps the fault.injected
/// counters.
class FaultInjector {
public:
    FaultInjector(Cluster& cluster, const FaultPlan& plan);

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    int injected() const { return injected_; }

private:
    void inject(const FaultSpec& f);
    void clear(const FaultSpec& f);
    void note(support::InstantId event, const FaultSpec& f);

    Cluster& cluster_;
    int injected_ = 0;
    std::vector<double> saved_speeds_; ///< pre-slowdown speeds, per node
};

}  // namespace dynmpi::sim
