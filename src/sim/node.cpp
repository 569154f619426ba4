#include "sim/node.hpp"

#include "support/error.hpp"

namespace dynmpi::sim {

Node::Node(Engine& engine, int id, CpuParams cpu_params, std::uint64_t seed,
           std::uint64_t memory_bytes)
    : engine_(engine),
      id_(id),
      memory_bytes_(memory_bytes),
      cpu_(engine, id, cpu_params, seed) {}

void Node::crash() {
    if (crashed_) return;
    competing_integral(); // fold the load integral up to the crash instant
    cpu_.halt(); // a pending batch completion must never resume a dead rank
    crashed_ = true;
}

void Node::revive() {
    if (!crashed_) return;
    competing_integral(); // fold the dead interval before load accrues again
    crashed_ = false;
    ++generation_;
}

double Node::competing_integral() const {
    integral_ +=
        active_competing() * to_seconds(engine_.now() - integral_last_);
    integral_last_ = engine_.now();
    return integral_;
}

void Node::set_competing_runnable(int pid, bool runnable) {
    auto it = burst_.find(pid);
    if (it == burst_.end()) return; // killed while a toggle was in flight
    if (it->second.runnable == runnable) return;
    competing_integral(); // fold the elapsed interval at the old level
    it->second.runnable = runnable;
    cpu_.set_runnable_competitors(active_competing() + (runnable ? 1 : -1));
}

void Node::schedule_toggle(int pid) {
    auto it = burst_.find(pid);
    DYNMPI_CHECK(it != burst_.end(), "toggle for unknown competing process");
    const BurstSpec& spec = it->second.spec;
    if (spec.period_s <= 0.0 || spec.duty >= 1.0) return; // constant load
    double span = it->second.runnable ? spec.period_s * spec.duty
                                      : spec.period_s * (1.0 - spec.duty);
    bool next_state = !it->second.runnable;
    it->second.toggle_event = engine_.after(
        from_seconds(span),
        [this, pid, next_state] {
            set_competing_runnable(pid, next_state);
            schedule_toggle(pid);
        },
        /*weak=*/true);
}

int Node::spawn_competing(BurstSpec spec) {
    DYNMPI_REQUIRE(spec.duty > 0.0 && spec.duty <= 1.0,
                   "duty must be in (0, 1]");
    int pid = next_pid_++;
    burst_.emplace(pid, CompetingState{spec, false, 0});
    set_competing_runnable(pid, true);
    schedule_toggle(pid);
    return pid;
}

void Node::kill_competing(int pid) {
    auto it = burst_.find(pid);
    DYNMPI_REQUIRE(it != burst_.end(), "kill of unknown competing pid");
    if (it->second.toggle_event != 0) engine_.cancel(it->second.toggle_event);
    set_competing_runnable(pid, false);
    burst_.erase(pid);
}

}  // namespace dynmpi::sim
