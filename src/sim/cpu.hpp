// Processor-sharing CPU model with round-robin measurement jitter.
//
// The node's application process runs *batches* of work.  A batch costs
// `ref_sec` seconds on a reference-speed, unloaded CPU.  While `n` competing
// compute-bound processes are runnable, the app progresses at share
// 1/(1+n) of the CPU, so elapsed wall time for work w is w*(1+n)/speed.
// Load changes mid-batch recompute the completion time (fluid PS model).
//
// Measurement artifacts are modelled separately from true progress:
//  - gethrtime-style per-row wall times carry deterministic pseudo-random
//    jitter of up to `quantum_s * n` (a context switch landing inside the
//    row), which is what makes short-iteration timing unreliable (paper §4.2
//    and Figure 7);
//  - /proc-style CPU times are exact here and quantized to the 10 ms jiffy
//    (kJiffyS) by the reader (Rank::proc_cpu_time, dynmpi/timing).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace dynmpi::sim {

/// /proc accounting granularity (paper §4.2).  The iteration timer also
/// reads /proc only when a row takes at least this long.
inline constexpr double kJiffyS = 0.010;

struct CpuParams {
    double speed = 1.0;       ///< relative to the reference node
    double quantum_s = 0.030; ///< scheduler quantum, bounds timing jitter
    double jitter_frac = 1.0; ///< scale factor for measurement jitter
    /// Scheduler wake-up latency: when a blocked process becomes runnable on
    /// a node with competing processes, it waits up to wake_delay_s per
    /// competitor before running (the waker does not preempt instantly).
    double wake_delay_s = 5e-4;
    /// Per-sync-point *straggle*: timeslice granularity means a loaded
    /// node's actual CPU share over one parallel phase deviates from the
    /// fluid 1/(1+n); the node arrives at each synchronization point up to
    /// straggle_s per competitor late.  Because this penalty is constant-ish
    /// per sync while cycle times shrink with the machine size, loaded nodes
    /// grow relatively more expensive at scale — the mechanism behind the
    /// paper's node removal results (Figure 6).  Scaled by jitter_frac (the
    /// master OS-noise switch); charged by the runtime at phase boundaries.
    double straggle_s = 1.0e-3;
};

class Cpu {
public:
    Cpu(Engine& engine, int node_id, CpuParams params, std::uint64_t seed);

    Cpu(const Cpu&) = delete;
    Cpu& operator=(const Cpu&) = delete;

    // ---- load ----

    /// Set the number of runnable compute-bound competitors.
    void set_runnable_competitors(int n);
    int runnable_competitors() const { return competitors_; }

    /// Change the CPU's relative speed mid-run (fault injection: permanent
    /// or windowed slowdowns).  Progress is folded at the old speed first;
    /// an active batch has its completion rescheduled.
    void set_speed(double speed);

    /// App's instantaneous CPU share if it were computing now.
    double share() const { return 1.0 / (1.0 + competitors_); }

    // ---- app work ----

    /// Begin a batch costing `ref_sec` reference-CPU seconds; `on_done` fires
    /// at the virtual time the batch completes.  One batch at a time.
    void start_batch(double ref_sec, std::function<void()> on_done);

    bool busy() const { return busy_; }

    /// Abandon any active batch without firing its completion callback (the
    /// node crashed: the process ceases to exist, so nobody may be resumed).
    void halt();

    /// Exact accumulated CPU seconds consumed by the app process.
    double app_cpu_seconds() const;

    /// Scheduling delay before a just-woken blocked process runs (0 when the
    /// node is unloaded).  Deterministic per call via an internal counter.
    double next_wake_delay();

    /// Residual scheduling delay a loaded node pays at a synchronization
    /// point: u * straggle_s per competitor (see CpuParams::straggle_s).
    double sync_straggle();

    // ---- per-row measurement reconstruction ----

    struct RowTimes {
        std::vector<double> wall; ///< measured wall time per row (with jitter)
        std::vector<double> cpu;  ///< exact CPU seconds per row
    };

    /// Reconstruct measured per-row times for a batch of rows that started
    /// executing at virtual time `t0`.  `row_ref_sec[i]` is row i's cost in
    /// reference-CPU seconds.  `batch_seed` decorrelates jitter across
    /// batches.  The reconstruction walks the recorded load timeline, so it
    /// is consistent with the true batch elapsed time.
    RowTimes reconstruct_rows(const std::vector<double>& row_ref_sec,
                              SimTime t0, std::uint64_t batch_seed) const;

    const CpuParams& params() const { return params_; }

    std::uint64_t batches_run() const { return batch_seq_; }

private:
    struct Segment {
        SimTime start;
        int competitors;
    };

    /// Account progress of the active batch up to engine.now().
    void advance_progress();
    void schedule_completion();
    void finish_batch();

    /// Measurement jitter for a work item of `cpu_sec`: a preemption lands
    /// inside the item with probability cpu_sec/quantum; when it does, the
    /// item's wall time absorbs up to competitors*quantum of competing
    /// execution.  Most short items therefore measure clean — the property
    /// that makes the paper's min-over-grace-period filter effective.
    double jitter_for(int competitors, std::uint64_t salt,
                      double cpu_sec) const;

    Engine& engine_;
    int node_id_;
    CpuParams params_;
    std::uint64_t seed_;

    int competitors_ = 0;
    std::vector<Segment> timeline_{{0, 0}};

    bool busy_ = false;
    double remaining_cpu_ = 0.0; ///< cpu-seconds at this node's speed
    SimTime last_update_ = 0;
    double app_cpu_ = 0.0;
    EventId completion_event_ = 0;
    std::function<void()> on_done_;
    std::uint64_t batch_seq_ = 0;
    std::uint64_t wake_seq_ = 0;
    std::uint64_t straggle_seq_ = 0;
};

}  // namespace dynmpi::sim
