// Per-node process table.
//
// Models just enough of a Unix process table for the load-sensing components:
// each process has a kind, a run state, and accumulated CPU time.  The
// dmpi_ps daemon and the vmstat-style sampler read snapshots of this table.
#pragma once

#include <string>
#include <vector>

#include "support/error.hpp"

namespace dynmpi::sim {

/// Scheduler state of a simulated process.
enum class ProcState { Running, Ready, Blocked };

/// What a simulated process is.
enum class ProcKind { App, Competing, Daemon };

struct ProcessInfo {
    int pid = -1;
    ProcKind kind = ProcKind::Competing;
    ProcState state = ProcState::Blocked;
    double cpu_seconds = 0.0;
    std::string name;
};

class ProcessTable {
public:
    /// Register a new process; returns its pid.
    int add(ProcKind kind, std::string name,
            ProcState initial = ProcState::Blocked);

    /// Remove a process.  Unknown pids are rejected.
    void remove(int pid);

    void set_state(int pid, ProcState s) { entry(pid).state = s; }

    bool exists(int pid) const;
    const ProcessInfo& info(int pid) const;

    /// `ps`-style snapshot of all live processes.
    std::vector<ProcessInfo> snapshot() const;

    std::size_t size() const;

private:
    ProcessInfo& entry(int pid);
    const ProcessInfo& entry(int pid) const;

    // Indexed by pid; removed entries keep pid == -1 as a tombstone.
    std::vector<ProcessInfo> procs_;
};

}  // namespace dynmpi::sim
