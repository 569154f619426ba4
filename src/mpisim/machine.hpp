// SPMD machine: runs one rank per simulated node under the engine.
//
// Concurrency model (SimGrid-style conservative co-simulation): every rank
// is a ucontext fiber with its own stack, and every fiber runs on the thread
// that calls Machine::run.  Exactly one context is active at any instant —
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
/// peer — ULFM-style local error semantics.  Recovery code catches this,
/// revokes in-flight control-plane traffic, and retries on an epoch-salted
/// protocol group.
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
    explicit Machine(sim::ClusterConfig config);
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

    /// Count of control revocations so far (bumped by node crashes and by
    /// Rank::revoke_control).  Failure-recovery protocols salt their groups
    /// with this so abandoned rounds can never be confused with retries.
    std::uint64_t revoke_epoch() const { return revoke_epoch_; }

private:
    friend class Rank;

    enum class RankPhase { Idle, Running, Blocked, Done };

    /// A ucontext plus, for ranks, its mmap'd stack (defined in machine.cpp).
    struct Fiber;

    struct RankState {
        std::unique_ptr<Fiber> fiber; ///< created on the first resume
        Rank* rank = nullptr; ///< the fiber's Rank while its program runs
        RankPhase phase = RankPhase::Idle;
        std::exception_ptr error;

        // Mailbox of delivered-but-unmatched packets.
        std::deque<sim::Packet> mailbox;

        // Pending blocking receive, if any.
        bool recv_waiting = false;
        int recv_src = kAnySource;
        std::int64_t recv_space = -1; ///< required TagSpace, or -1 for any
        std::uint64_t recv_tag = 0;
        bool recv_any_tag = false;
        sim::Packet recv_result;

        // Failure-delivery flags, set by the engine before a forced resume.
        bool peer_failed = false; ///< woken because recv_src crashed
        int failed_peer = -1;
        bool revoked = false; ///< woken by revoke_control_recvs
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
    void on_node_crash(int node);      ///< cluster crash handler
    void on_node_revive(int node);     ///< cluster revive handler: restart the
                                       ///< rank with a fresh incarnation
    void switch_into(int r); ///< engine → rank r's fiber, and back
    void abort_blocked_ranks();

    // ---- rank-side ----
    void yield_from_rank(int r); ///< switch back to the engine until resumed
    /// makecontext entry point: the Machine pointer arrives split in halves.
    static void fiber_entry(unsigned int hi, unsigned int lo) noexcept;
    void fiber_main(); ///< body of every rank fiber (runs program_)
    RankState& state(int r);

    /// Start a new control revocation epoch: every rank blocked in a
    /// collective- or runtime-tag receive is woken with EpochRevoked so
    /// recovery protocols can restart on an epoch-salted group.  Called from
    /// rank context (the caller is the running fiber) by
    /// Rank::revoke_control.
    void revoke_control_recvs();

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
