// Textual load traces.
//
// Benches and examples script competing-process activity; a small trace
// language keeps those scripts data, not code, so experiments can be varied
// without recompiling.
//
// Grammar (one directive per line, '#' comments):
//
//   node <id>: <start> [<end>|inf] [x<count>] [bursty(<period>,<duty>)]
//
// Examples:
//   # two steady competing processes on node 3 from t=1.0 forever
//   node 3: 1.0 inf x2
//   # a half-duty bursty process on node 0 between 2 and 8 seconds
//   node 0: 2.0 8.0 bursty(0.25,0.5)
#pragma once

#include <string>
#include <vector>

#include "sim/cluster.hpp"

namespace dynmpi::sim {

struct LoadDirective {
    int node = 0;
    double start_s = 0.0;
    double end_s = -1.0; ///< -1 = forever
    int count = 1;
    BurstSpec burst;

    bool operator==(const LoadDirective&) const = default;
};

/// Parse a trace; throws Error with the offending line on syntax problems.
std::vector<LoadDirective> parse_load_trace(const std::string& text);

/// Schedule every directive on the cluster.
void apply_load_trace(Cluster& cluster,
                      const std::vector<LoadDirective>& trace);

/// Convenience: parse + apply.
void apply_load_trace(Cluster& cluster, const std::string& text);

}  // namespace dynmpi::sim
