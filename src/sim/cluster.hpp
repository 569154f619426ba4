// The simulated non-dedicated cluster: engine + nodes + network + daemons.
//
// A Cluster bundles everything below the message layer and provides the
// load-scripting hooks benches use to introduce and retire competing
// processes at virtual times ("a competing process is started on node k at
// the 10th iteration" in the paper becomes either a timed interval or an
// app-triggered spawn).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/ps_daemon.hpp"

namespace dynmpi::sim {

class FaultPlan;
class FaultInjector;

struct ClusterConfig {
    int num_nodes = 4;
    std::vector<double> speeds; ///< per-node relative speed; empty → all 1.0
    CpuParams cpu;              ///< template for every node (speed overridden)
    NetParams net;
    std::uint64_t seed = 42;
    SimTime ps_period = kNsPerSec; ///< dmpi_ps sampling period
    /// Physical memory per node for application data (0 = unlimited); empty
    /// → every node unlimited.  Exceeding it models paging (the AppLeS-style
    /// constraint the memory-aware balancer avoids).
    std::vector<std::uint64_t> memories;
};

class Cluster {
public:
    explicit Cluster(const ClusterConfig& config);
    ~Cluster();

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    Engine& engine() { return engine_; }
    Network& network() { return *network_; }
    int size() const { return static_cast<int>(nodes_.size()); }
    Node& node(int i);
    PsDaemon& daemon(int i);

    // ---- load scripting ----

    /// Spawn a competing process right now; returns its pid.
    int spawn_competing(int node, BurstSpec spec = {});

    void kill_competing(int node, int pid);

    /// Schedule `count` competing processes on `node` for the virtual-time
    /// interval [t_start, t_end) (t_end < 0 means "forever").
    void add_load_interval(int node, double t_start, double t_end,
                           int count = 1, BurstSpec spec = {});

    /// Run an arbitrary callback at a virtual time (bench scripting).
    void at(double t, std::function<void()> fn);

    // ---- faults ----

    /// Permanently halt a node: fold its load integral, stop its daemon,
    /// and make the network discard its traffic.  Idempotent.  Fires the
    /// crash handler (if any) so the message layer can wake blocked ranks.
    void crash_node(int node);
    bool node_crashed(int node) const;
    int crashed_count() const;

    /// Bring a crashed node back: clear the crashed flags, restart its
    /// daemon, and fire the revive handler so the message layer can restart
    /// the node's rank.  No-op on a live node.
    void revive_node(int node);
    /// How many times `node` has been revived (0 = original incarnation).
    int node_generation(int node) const;

    /// Installed by the message layer; invoked from engine context once per
    /// crash, after the node and network are already marked dead.
    void set_crash_handler(std::function<void(int)> handler);

    /// Installed by the message layer; invoked from engine context once per
    /// revival, after the node, network, and daemon are serving again.
    void set_revive_handler(std::function<void(int)> handler);

    /// Arm a fault plan against this cluster (validates the plan and
    /// schedules every fault).  The injector lives as long as the cluster.
    void install_faults(const FaultPlan& plan);
    const FaultInjector* faults() const { return injector_.get(); }

private:
    Engine engine_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<Network> network_;
    std::vector<std::unique_ptr<PsDaemon>> daemons_;
    std::function<void(int)> crash_handler_;
    std::function<void(int)> revive_handler_;
    std::unique_ptr<FaultInjector> injector_;
};

}  // namespace dynmpi::sim
