// The simulated clusters the tests run on.  Measurement jitter is off
// unless a test asks for it, so row timings and adaptation are exact.
#pragma once

#include "sim/cluster.hpp"

namespace dynmpi {

/// A CPU with measurement jitter off.
inline sim::CpuParams quiet_cpu() {
    sim::CpuParams p;
    p.jitter_frac = 0.0;
    return p;
}

/// `nodes` nodes with the default 1 s dmpi_ps period.
inline sim::ClusterConfig quiet_cluster(int nodes, double jitter = 0.0) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.cpu.jitter_frac = jitter;
    return c;
}

/// `nodes` nodes whose dmpi_ps daemons sample every 0.25 s, so a load
/// change registers within a few short cycles.
inline sim::ClusterConfig fast_cluster(int nodes, double jitter = 0.0) {
    sim::ClusterConfig c = quiet_cluster(nodes, jitter);
    c.ps_period = sim::from_seconds(0.25);
    return c;
}

}  // namespace dynmpi
