// SPMD machine: runs one rank per simulated node under the engine.
//
// Concurrency model (SimGrid-style conservative co-simulation): every rank
// is a fiber with its own stack, and every fiber runs on the thread that
// calls Machine::run.  Exactly one context is active at any instant —
// either the engine (processing events on the caller's stack) or a single
// rank — and control passes by a plain context switch:
//
//   engine event "resume rank r"  →  switch into rank r's fiber  →  user
//   code runs  →  rank blocks (compute / recv / sleep)  →  switch back to
//   the engine.
//
// Everything the simulation touches is therefore data-race-free by
// construction, and runs are fully deterministic.  A Machine keeps no
// process-wide fiber state, so independent Machines may run concurrently on
// different threads.
//
// The switch (dynmpi_fiber_switch in machine.cpp) is twenty instructions
// of x86-64 assembly.  It saves exactly what the System V ABI says a call
// preserves: rbp, rbx, r12–r15, the stack pointer, and the floating-point
// control state (MXCSR and the x87 control word), so each rank keeps its
// own rounding mode.  Every new fiber starts with the default floating-point
// environment.  Around the switch, C++ code also swaps the per-thread
// exception-handling globals and, under ASan, announces the stack change.
// The C library's user-context switch is not used: it also saves the signal
// mask, which costs an rt_sigprocmask system call per switch.  Nothing in src/
// installs signal handlers or changes the signal mask, so all fibers share
// the thread's mask and none needs its own copy.  Only x86-64 Linux is
// supported; other targets fail to compile until the switch is ported.
//
// Misbehaving programs are diagnosed rather than hung: if the event queue
// drains while ranks are still blocked, the machine aborts them (each unwinds
// through MachineAborted, running its destructors) and throws a deadlock
// Error naming the stuck ranks.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpisim/tags.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"

namespace dynmpi::msg {

class Rank;

/// Thrown inside rank code when the machine tears a blocked rank down
/// (deadlock recovery or a sibling rank's failure).  User code should not
/// catch it.
class MachineAborted : public std::exception {
public:
    const char* what() const noexcept override {
        return "simulation machine aborted";
    }
};

/// Thrown inside rank code when its *own* node crashes: the rank unwinds and
/// its fiber finishes quietly, matching a process that simply stops existing.
/// User code should not catch it.
class NodeCrashed : public std::exception {
public:
    const char* what() const noexcept override { return "node crashed"; }
};

/// Thrown from a receive that targets (or is woken by the crash of) a failed
/// peer — ULFM-style local error semantics.  A user-tag receive sees it; a
/// collective or runtime receive meets EpochRevoked first, because every
/// crash starts a revocation epoch.
class PeerFailure : public std::exception {
public:
    explicit PeerFailure(int peer) : peer_(peer) {}
    int peer() const { return peer_; }
    const char* what() const noexcept override { return "peer rank failed"; }

private:
    int peer_ = -1;
};

/// Thrown from non-user-tag receives posted (or pending) across a control
/// revocation — the signal that a failure-recovery epoch has started and the
/// current protocol round must be abandoned and retried.
class EpochRevoked : public std::exception {
public:
    const char* what() const noexcept override {
        return "control epoch revoked";
    }
};

class Machine {
public:
    explicit Machine(const sim::ClusterConfig& config);
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    sim::Cluster& cluster() { return cluster_; }
    int num_ranks() const { return cluster_.size(); }

    /// Run `fn` as an SPMD program, one instance per rank, to completion.
    /// Every rank runs as a fiber on the calling thread; rethrows the first
    /// rank failure; throws Error on deadlock.  One-shot: a Machine runs one
    /// program.
    void run(std::function<void(Rank&)> fn);

    /// Total virtual time consumed by the program (valid after run()).
    double elapsed_seconds() const { return elapsed_; }

    /// Delivered-traffic accounting, split by tag namespace (user traffic vs
    /// collectives vs Dyn-MPI runtime) and data vs control plane.
    struct TrafficStats {
        std::uint64_t messages[3] = {0, 0, 0}; ///< indexed by TagSpace
        std::uint64_t bytes[3] = {0, 0, 0};
        std::uint64_t control_messages = 0;
        std::uint64_t control_bytes = 0;

        std::uint64_t total_messages() const {
            return messages[0] + messages[1] + messages[2];
        }
        std::uint64_t total_bytes() const {
            return bytes[0] + bytes[1] + bytes[2];
        }
    };
    const TrafficStats& traffic() const { return traffic_; }

    /// Count of control revocations so far (one per node crash).
    /// Failure-recovery protocols salt their groups with this so abandoned
    /// rounds can never be confused with retries.
    std::uint64_t revoke_epoch() const { return revoke_epoch_; }

private:
    friend class Rank;

    enum class RankPhase { Idle, Running, Blocked, Done };
    /// Why a blocked receive returned: a packet matched it, a revocation
    /// ended it (EpochRevoked), or its source crashed (PeerFailure).
    enum class RecvWake { Matched, Revoked, PeerFailed };

    /// A saved stack pointer plus, for ranks, its mmap'd stack (defined in
    /// machine.cpp).
    struct Fiber;

    struct RankState {
        std::unique_ptr<Fiber> fiber; ///< created on the first resume
        Rank* rank = nullptr; ///< the fiber's Rank while its program runs
        RankPhase phase = RankPhase::Idle;
        std::exception_ptr error;

        // Mailbox of delivered-but-unmatched packets.
        std::deque<sim::Packet> mailbox;

        // Pending blocking receive, if any, and what ended it: the matched
        // packet, or a reason set before a forced resume.
        std::optional<RecvMatch> recv;
        sim::Packet recv_result;
        RecvWake wake = RecvWake::Matched;
        std::uint64_t seen_revoke = 0; ///< last revocation epoch observed
    };

    // ---- engine-side ----
    void export_observability();       ///< push traffic/engine stats to the
                                       ///< metrics registry + trace sink
    void resume_rank(int r); ///< switch into rank r until it blocks or ends
    /// Incarnation-guarded resume for deferred wakes (sleep timers, delayed
    /// deliveries): dropped if the rank was revived since the wake was
    /// scheduled, so a dead incarnation's timers cannot fire into the new one.
    void resume_rank_inc(int r, std::uint64_t inc);
    std::uint64_t incarnation(int r) const {
        return incarnation_[static_cast<std::size_t>(r)];
    }
    void on_delivery(sim::Packet&& p); ///< network upcall (engine context)
    void on_node_revive(int node);     ///< cluster revive handler: restart the
                                       ///< rank with a fresh incarnation
    /// Cluster crash handler: start a new control revocation epoch.  Every
    /// rank blocked in a collective- or runtime-tag receive is woken with
    /// EpochRevoked so recovery protocols can restart on an epoch-salted
    /// group, a survivor blocked in a user-tag receive from `node` with
    /// PeerFailure, and the dying rank to unwind.
    void on_node_crash(int node);
    void switch_into(int r); ///< engine → rank r's fiber, and back
    void abort_blocked_ranks();

    // ---- rank-side ----
    void yield_from_rank(int r); ///< switch back to the engine until resumed
    /// First function of every rank fiber, called by the switch trampoline.
    static void fiber_entry(Machine* m) noexcept;
    void fiber_main(); ///< body of every rank fiber (runs program_)
    RankState& state(int r);

    sim::Cluster cluster_;
    std::vector<std::unique_ptr<RankState>> ranks_;
    std::function<void(Rank&)> program_; ///< kept for rank restarts (revive)
    std::vector<std::uint64_t> incarnation_; ///< bumped per rank revival

    std::unique_ptr<Fiber> engine_; ///< run()'s caller context
    int active_rank_ = -1; ///< -1 while the engine runs
    bool aborting_ = false;
    bool started_ = false;
    double elapsed_ = 0.0;
    TrafficStats traffic_;
    std::uint64_t revoke_epoch_ = 0;
};

}  // namespace dynmpi::msg
