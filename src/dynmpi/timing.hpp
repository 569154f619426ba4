// Unloaded iteration-time estimation during the grace period (paper §4.2).
//
// When a load change is detected, Dyn-MPI lets the application run for a
// grace period (default 5 phase cycles) while it measures per-iteration
// times.  Two mechanisms are available:
//
//  - /proc CPU time: immune to competing processes but quantized to the
//    10 ms jiffy (sim::kJiffyS), so it is only used when the mean row takes
//    at least one jiffy;
//  - gethrtime wall time: fine-grained but inflated by competing processes
//    and by context-switch spikes; dividing by the dmpi_ps load and taking
//    the minimum across the grace period's cycles filters the spikes.
//
// The estimator produces per-row *unloaded reference-CPU seconds* — the
// inputs the balancer needs even when the computation itself is unbalanced
// (e.g. particle simulation).
#pragma once

#include <vector>

namespace dynmpi {

class IterationTimer {
public:
    enum class Method { Proc, Hrtime };

    /// Begin a grace period measuring `num_rows` rows.
    void start(int num_rows);

    /// Record one phase cycle's measurements for this node's rows.
    /// `wall` and `cpu` come from the compute batch; `avg_competing` is the
    /// dmpi_ps reading for the cycle; `speed` the node's relative speed.
    void record_cycle(const std::vector<double>& wall,
                      const std::vector<double>& cpu, double avg_competing,
                      double speed);

    int cycles_recorded() const { return cycles_; }

    /// Which mechanism the estimates would use right now.
    Method chosen_method() const;

    /// Per-row unloaded cost estimates (reference-CPU seconds).
    std::vector<double> estimates() const;

private:
    /// Apply jiffy quantization to a sequence of per-row CPU times the way a
    /// /proc reader would observe them (cumulative counter, floor to jiffy).
    std::vector<double> quantize_proc(const std::vector<double>& cpu) const;

    int num_rows_ = 0;
    int cycles_ = 0;
    std::vector<double> hrtime_min_;  ///< min unloaded estimate per row
    std::vector<double> proc_sum_;    ///< sum of quantized /proc readings
};

}  // namespace dynmpi
