#include "mpisim/machine.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cxxabi.h>
#include <sstream>

#include "mpisim/rank.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DYNMPI_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DYNMPI_ASAN_FIBERS 1
#endif
#endif
#ifdef DYNMPI_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace dynmpi::msg {

namespace {

/// Rank stack size: the default thread stack on Linux.  Pages are committed
/// only when touched (MAP_NORESERVE), so 32 ranks cost what they use.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

/// The per-thread exception-handling globals of the Itanium C++ ABI
/// (§2.2.2).  Each fiber keeps its own copy, swapped at every switch, so a
/// rank suspended inside a catch handler still sees its own exception.
struct EhGlobals {
    void* caught_exceptions = nullptr;
    unsigned int uncaught_exceptions = 0;
};

EhGlobals& eh_globals() {
    return *reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
}

}  // namespace

struct Machine::Fiber {
    ucontext_t ctx{};
    EhGlobals eh;              ///< saved while this context is switched out
    void* map = nullptr;       ///< mmap'd stack (guard page lowest), or null
    const void* stack_lo = nullptr; ///< usable stack, for ASan annotations
    std::size_t stack_size = 0;

    /// The engine context: runs on run()'s caller stack, whose bounds ASan
    /// reports on the first switch into each rank.
    Fiber() = default;

    /// A rank fiber that starts in Machine::fiber_entry(m).
    explicit Fiber(Machine* m) {
        const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        map = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
        if (map == MAP_FAILED) {
            map = nullptr;
            throw Error("mmap of a rank fiber stack failed");
        }
        if (mprotect(map, page, PROT_NONE) != 0 || getcontext(&ctx) != 0) {
            munmap(map, kStackBytes);
            throw Error("rank fiber setup failed");
        }
        stack_lo = static_cast<char*>(map) + page;
        stack_size = kStackBytes - page;
#ifdef DYNMPI_ASAN_FIBERS
        // The range may have held an earlier fiber's stack, whose finished
        // frames left poisoned shadow behind.
        __asan_unpoison_memory_region(stack_lo, stack_size);
#endif
        ctx.uc_stack.ss_sp = const_cast<void*>(stack_lo);
        ctx.uc_stack.ss_size = stack_size;
        ctx.uc_link = nullptr; // fiber_main never returns
        const auto bits = reinterpret_cast<std::uintptr_t>(m);
        makecontext(&ctx, reinterpret_cast<void (*)()>(&Machine::fiber_entry),
                    2, static_cast<unsigned int>(bits >> 32),
                    static_cast<unsigned int>(bits));
    }
    ~Fiber() {
        if (map != nullptr) munmap(map, kStackBytes);
    }
    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /// Suspend this (running) context and continue `to`; returns when some
    /// context switches back.  `leaving` marks a finished fiber's last
    /// switch.
    void switch_to(Fiber& to, [[maybe_unused]] bool leaving = false) {
        EhGlobals& current = eh_globals();
        eh = current;
        current = to.eh;
#ifdef DYNMPI_ASAN_FIBERS
        void* fake_stack = nullptr;
        __sanitizer_start_switch_fiber(leaving ? nullptr : &fake_stack,
                                       to.stack_lo, to.stack_size);
#endif
        if (swapcontext(&ctx, &to.ctx) != 0) std::abort();
#ifdef DYNMPI_ASAN_FIBERS
        __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    }
};

Machine::Machine(sim::ClusterConfig config) : cluster_(std::move(config)) {
    cluster_.network().set_delivery_handler(
        [this](sim::Packet&& p) { on_delivery(std::move(p)); });
    cluster_.set_crash_handler([this](int node) { on_node_crash(node); });
    cluster_.set_revive_handler([this](int node) { on_node_revive(node); });
}

Machine::~Machine() {
    // If run() threw (or was never called), unwind every rank fiber still
    // parked mid-program so its destructors run.  Fibers catch everything,
    // so this cannot throw.
    abort_blocked_ranks();
}

Machine::RankState& Machine::state(int r) {
    DYNMPI_CHECK(r >= 0 && r < static_cast<int>(ranks_.size()), "bad rank");
    return *ranks_[static_cast<std::size_t>(r)];
}

void Machine::run(std::function<void(Rank&)> fn) {
    DYNMPI_REQUIRE(!started_, "a Machine runs exactly one program");
    started_ = true;
    program_ = std::move(fn); // kept beyond this frame: revived ranks rerun it

    const int n = num_ranks();
    engine_ = std::make_unique<Fiber>();
    ranks_.reserve(static_cast<std::size_t>(n));
    incarnation_.assign(static_cast<std::size_t>(n), 0);
    for (int r = 0; r < n; ++r) {
        ranks_.push_back(std::make_unique<RankState>());
        // Kick every rank off at t=0; its fiber is created on this resume.
        cluster_.engine().at(0, [this, r] { resume_rank(r); });
    }

    // Engine loop: drain events; resume events switch into rank fibers.
    // Weak background events (daemons, load bursts) never keep the loop
    // alive on their own.
    sim::Engine& eng = cluster_.engine();
    eng.run();

    // Strong events drained.  Any rank not Done is deadlocked (blocked with
    // no wake event) — tear them down and report.
    std::vector<int> stuck;
    for (int r = 0; r < n; ++r)
        if (state(r).phase != RankPhase::Done) stuck.push_back(r);
    if (!stuck.empty()) abort_blocked_ranks();

    elapsed_ = sim::to_seconds(eng.now());
    export_observability();

    for (auto& rs : ranks_)
        if (rs->error) std::rethrow_exception(rs->error);

    if (!stuck.empty()) {
        std::ostringstream os;
        os << "deadlock: event queue drained with blocked ranks:";
        for (int r : stuck) os << ' ' << r;
        if (cluster_.crashed_count() > 0) {
            os << " (crashed nodes:";
            for (int i = 0; i < cluster_.size(); ++i)
                if (cluster_.node_crashed(i)) os << ' ' << i;
            os << " — a fault landed outside the recoverable window; see"
                  " docs/FAULTS.md)";
        }
        throw Error(os.str());
    }
}

void Machine::export_observability() {
    // One shot per run, after the clock stops: delivered-traffic totals by
    // tag space plus the engine's event-queue stats.  Counters accumulate
    // across Machines in one process (bench sweeps); gauges are last-run.
    sim::Engine& eng = cluster_.engine();
    if (support::metrics().enabled()) {
        auto& mx = support::metrics();
        static const char* const kSpace[3] = {"user", "collective",
                                              "runtime"};
        for (std::size_t s = 0; s < 3; ++s) {
            mx.counter(std::string("machine.messages.") + kSpace[s])
                .add(traffic_.messages[s]);
            mx.counter(std::string("machine.bytes.") + kSpace[s])
                .add(traffic_.bytes[s]);
        }
        mx.counter("machine.messages.control").add(traffic_.control_messages);
        mx.counter("machine.bytes.control").add(traffic_.control_bytes);
        mx.counter("machine.runs").add(1);
        mx.gauge("machine.elapsed_s").set(elapsed_);
        mx.counter("sim.events_fired").add(eng.events_fired());
        mx.gauge("sim.peak_pending_events")
            .set(static_cast<double>(eng.peak_pending_events()));
        mx.gauge("sim.pending_events")
            .set(static_cast<double>(eng.pending_events()));
    }
    if (support::trace().enabled()) {
        using support::targ;
        support::trace().instant(
            elapsed_, /*rank=*/-1, "machine.run_end",
            {targ("elapsed_s", elapsed_),
             targ("messages", traffic_.total_messages()),
             targ("bytes", traffic_.total_bytes()),
             targ("control_messages", traffic_.control_messages),
             targ("events_fired", eng.events_fired()),
             targ("peak_pending_events",
                  static_cast<std::uint64_t>(eng.peak_pending_events()))});
    }
}

void Machine::fiber_entry(unsigned int hi, unsigned int lo) noexcept {
    const auto bits = (std::uintptr_t{hi} << 32) | std::uintptr_t{lo};
    reinterpret_cast<Machine*>(bits)->fiber_main();
}

void Machine::fiber_main() {
    // First switch into this fiber: resume_rank set active_rank_ to us.
#ifdef DYNMPI_ASAN_FIBERS
    // Learn the engine's stack bounds, needed to switch back to it.
    __sanitizer_finish_switch_fiber(nullptr, &engine_->stack_lo,
                                    &engine_->stack_size);
#endif
    const int r = active_rank_;
    RankState& rs = state(r);
    {
        // The Rank (and with it every shim state bound to it) lives exactly
        // as long as this incarnation's program, like a process.
        Rank rank(*this, r);
        rs.rank = &rank;
        Rank::current_ = &rank;
        try {
            program_(rank);
        } catch (const MachineAborted&) {
            // torn down deliberately; not an error of its own
        } catch (const NodeCrashed&) {
            // this rank's node died; the process just stops existing
        } catch (...) {
            rs.error = std::current_exception();
        }
    }
    rs.rank = nullptr;
    rs.phase = RankPhase::Done;
    active_rank_ = -1;
    // Nothing is left on this stack; the engine frees it with the RankState.
    rs.fiber->switch_to(*engine_, /*leaving=*/true);
    std::abort(); // a finished fiber is never resumed
}

void Machine::on_node_revive(int node) {
    // Engine context: no rank is running.  The dead incarnation's fiber
    // unwound via NodeCrashed when its crash wake fired (strictly before this
    // event), so it is Done; start a fresh incarnation that reruns the
    // program from the top.
    if (!started_) return;
    RankState* old = ranks_[static_cast<std::size_t>(node)].get();
    DYNMPI_CHECK(old->phase == RankPhase::Done,
                 "revive of a rank that has not unwound");
    if (old->error) {
        // A real error (not NodeCrashed) must not be silently discarded by
        // the state swap; keep the old state so run() rethrows it.
        return;
    }
    // Packets addressed to the dead incarnation died with it: fresh state,
    // fresh mailbox, and the old stack is unmapped here.  Deferred wakes
    // from the old incarnation are dropped by the incarnation guard.
    ++incarnation_[static_cast<std::size_t>(node)];
    ranks_[static_cast<std::size_t>(node)] = std::make_unique<RankState>();
    resume_rank(node);
}

void Machine::resume_rank_inc(int r, std::uint64_t inc) {
    if (inc != incarnation_[static_cast<std::size_t>(r)]) return;
    resume_rank(r);
}

void Machine::resume_rank(int r) {
    RankState& rs = state(r);
    DYNMPI_CHECK(active_rank_ == -1, "resume while another rank is active");
    if (rs.phase == RankPhase::Done && cluster_.node_crashed(r)) {
        // A stale wake (batch completion, matched recv) aimed at a rank
        // whose node has since crashed and unwound.  Nothing to resume.
        return;
    }
    DYNMPI_CHECK(rs.phase != RankPhase::Done, "resume of finished rank");
    if (!rs.fiber) rs.fiber = std::make_unique<Fiber>(this);
    rs.phase = RankPhase::Running;
    switch_into(r);
}

void Machine::switch_into(int r) {
    RankState& rs = state(r);
    active_rank_ = r;
    Rank::current_ = rs.rank;
    engine_->switch_to(*rs.fiber);
    Rank::current_ = nullptr;
}

void Machine::yield_from_rank(int r) {
    // A rank being torn down does not block again: it keeps unwinding.
    if (aborting_) throw MachineAborted{};
    RankState& rs = state(r);
    rs.phase = RankPhase::Blocked;
    active_rank_ = -1;
    rs.fiber->switch_to(*engine_);
    // Resumed by resume_rank, or by abort_blocked_ranks to unwind.
    if (aborting_) throw MachineAborted{};
    // The single crash delivery point: a crash can only land while this rank
    // is switched out (engine context), so checking on every wake-up is
    // sufficient.
    if (cluster_.node_crashed(r)) throw NodeCrashed{};
}

void Machine::abort_blocked_ranks() {
    // Engine context.  Each rank parked mid-program is switched into with
    // aborting_ set: it throws MachineAborted from its blocking call, unwinds
    // (running its destructors) and finishes.  A rank never resumed has no
    // fiber and nothing to unwind.
    aborting_ = true;
    for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
        RankState& rs = state(r);
        if (rs.phase == RankPhase::Done) continue;
        if (rs.fiber) {
            rs.phase = RankPhase::Running;
            switch_into(r);
        }
        rs.phase = RankPhase::Done;
    }
}

void Machine::on_node_crash(int node) {
    // Engine context: no rank is running, so rank states are quiescent.
    if (ranks_.empty()) return; // cluster faults without a running program
    sim::Engine& eng = cluster_.engine();
    // Every crash starts a new revocation epoch: survivors stranded in a
    // protocol round that still counts the dead node must abandon it, even
    // when their current recv targets a live peer.
    ++revoke_epoch_;
    for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
        RankState& rs = state(r);
        if (rs.phase != RankPhase::Blocked) continue;
        if (r == node) {
            // Wake the dying rank so it can unwind via NodeCrashed — whether
            // it was blocked in a recv, a compute, or a sleep.
            rs.recv_waiting = false;
            eng.at(eng.now(), [this, r] { resume_rank(r); });
        } else if (rs.recv_waiting &&
                   rs.recv_space !=
                       static_cast<std::int64_t>(TagSpace::User)) {
            // Control-plane recv: revoke so the recovery loop retries on an
            // epoch-salted group.
            rs.recv_waiting = false;
            rs.revoked = true;
            eng.at(eng.now(), [this, r] { resume_rank(r); });
        } else if (rs.recv_waiting && rs.recv_src == node) {
            // A survivor waiting specifically on the dead node gets a local
            // failure notification instead of hanging forever.
            rs.recv_waiting = false;
            rs.peer_failed = true;
            rs.failed_peer = node;
            eng.at(eng.now(), [this, r] { resume_rank(r); });
        }
    }
}

void Machine::revoke_control_recvs() {
    // Rank context: the caller is the running fiber, every other rank is
    // parked.
    ++revoke_epoch_;
    sim::Engine& eng = cluster_.engine();
    for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
        RankState& rs = state(r);
        if (rs.phase != RankPhase::Blocked || !rs.recv_waiting) continue;
        if (rs.recv_space == static_cast<std::int64_t>(TagSpace::User))
            continue; // user-plane traffic is never revoked
        rs.recv_waiting = false;
        rs.revoked = true;
        eng.at(eng.now(), [this, r] { resume_rank(r); });
    }
}

void Machine::on_delivery(sim::Packet&& p) {
    const int dst = p.dst;
    if (p.control) {
        ++traffic_.control_messages;
        traffic_.control_bytes += p.payload.size();
    } else {
        auto space = static_cast<std::size_t>(tag_space(p.tag));
        DYNMPI_CHECK(space < 3, "unknown tag space");
        ++traffic_.messages[space];
        traffic_.bytes[space] += p.payload.size();
    }
    RankState& rs = state(dst);
    if (rs.recv_waiting) {
        bool src_ok = rs.recv_src == kAnySource || rs.recv_src == p.src;
        bool tag_ok =
            rs.recv_any_tag
                ? (rs.recv_space < 0 ||
                   static_cast<std::int64_t>(tag_space(p.tag)) ==
                       rs.recv_space)
                : p.tag == rs.recv_tag;
        if (src_ok && tag_ok) {
            rs.recv_waiting = false;
            rs.recv_result = std::move(p);
            // A blocked process that becomes runnable on a loaded node waits
            // for the scheduler (wake-up latency).
            double delay = cluster_.node(dst).cpu().next_wake_delay();
            if (delay > 0.0) {
                std::uint64_t inc = incarnation(dst);
                cluster_.engine().after(
                    sim::from_seconds(delay),
                    [this, dst, inc] { resume_rank_inc(dst, inc); });
            } else {
                resume_rank(dst);
            }
            return;
        }
    }
    rs.mailbox.push_back(std::move(p));
}

}  // namespace dynmpi::msg
