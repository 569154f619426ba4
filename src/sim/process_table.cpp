#include "sim/process_table.hpp"

namespace dynmpi::sim {

int ProcessTable::add(ProcKind kind, std::string name, ProcState initial) {
    ProcessInfo p;
    p.pid = static_cast<int>(procs_.size());
    p.kind = kind;
    p.state = initial;
    p.name = std::move(name);
    procs_.push_back(std::move(p));
    return procs_.back().pid;
}

ProcessInfo& ProcessTable::entry(int pid) {
    DYNMPI_REQUIRE(exists(pid), "unknown pid");
    return procs_[static_cast<std::size_t>(pid)];
}

const ProcessInfo& ProcessTable::entry(int pid) const {
    DYNMPI_REQUIRE(exists(pid), "unknown pid");
    return procs_[static_cast<std::size_t>(pid)];
}

bool ProcessTable::exists(int pid) const {
    return pid >= 0 && pid < static_cast<int>(procs_.size()) &&
           procs_[static_cast<std::size_t>(pid)].pid == pid;
}

void ProcessTable::remove(int pid) { entry(pid).pid = -1; }

const ProcessInfo& ProcessTable::info(int pid) const { return entry(pid); }

std::vector<ProcessInfo> ProcessTable::snapshot() const {
    std::vector<ProcessInfo> out;
    for (const auto& p : procs_)
        if (p.pid != -1) out.push_back(p);
    return out;
}

std::size_t ProcessTable::size() const {
    std::size_t n = 0;
    for (const auto& p : procs_)
        if (p.pid != -1) ++n;
    return n;
}

}  // namespace dynmpi::sim
