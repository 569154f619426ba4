#include "mpisim/machine.hpp"

#include <sys/mman.h>
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

#if !defined(__x86_64__) || !defined(__linux__)
#error "rank fibers need dynmpi_fiber_switch (machine.cpp) ported to this target"
#endif

// dynmpi_fiber_switch(void** save_sp, void* to_sp): suspend the calling
// context and continue the one whose stack pointer is `to_sp`.  It pushes the
// System V callee-saved registers (rbp, rbx, r12-r15) and the callee-saved
// floating-point control state (MXCSR, x87 control word), stores rsp in
// *save_sp, loads `to_sp`, pops the other side's frame and returns into it.
// Every suspended context's stack holds exactly this frame, so the CFI below
// describes both sides of the swap.
//
// dynmpi_fiber_start is the first return address of a new fiber (see
// Fiber(Machine*)): it calls the function in r13 with the argument in r12.
// It marks the outermost frame of the fiber for unwinders and debuggers.
asm(R"(
    .text
    .globl dynmpi_fiber_switch
    .hidden dynmpi_fiber_switch
    .type dynmpi_fiber_switch, @function
    .p2align 4
dynmpi_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbp, 0
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    pushq %r14
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r14, 0
    pushq %r15
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r15, 0
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    popq %r14
    .cfi_adjust_cfa_offset -8
    popq %r13
    .cfi_adjust_cfa_offset -8
    popq %r12
    .cfi_adjust_cfa_offset -8
    popq %rbx
    .cfi_adjust_cfa_offset -8
    popq %rbp
    .cfi_adjust_cfa_offset -8
    ret
    .cfi_endproc
    .size dynmpi_fiber_switch, .-dynmpi_fiber_switch

    .globl dynmpi_fiber_start
    .hidden dynmpi_fiber_start
    .type dynmpi_fiber_start, @function
    .p2align 4
dynmpi_fiber_start:
    .cfi_startproc
    .cfi_undefined %rip
    movq %r12, %rdi
    call *%r13
    ud2
    .cfi_endproc
    .size dynmpi_fiber_start, .-dynmpi_fiber_start
)");

extern "C" void dynmpi_fiber_switch(void** save_sp, void* to_sp);
extern "C" void dynmpi_fiber_start();

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

/// The frame dynmpi_fiber_switch pops, lowest address first.  A new fiber's
/// frame holds its entry function and argument in r13 and r12, a null rbp
/// that ends frame-pointer walks, and dynmpi_fiber_start as return address.
struct SwitchFrame {
    std::uint32_t mxcsr;
    std::uint16_t x87_cw;
    std::uint16_t pad;
    void* r15;
    void* r14;
    void (*r13)(Machine*) noexcept;
    Machine* r12;
    void* rbx;
    void* rbp;
    void (*ret)();
};
static_assert(sizeof(SwitchFrame) == 64);

/// Power-on floating-point control state: round to nearest, all exceptions
/// masked, and for x87 64-bit precision.  Every new fiber starts with it.
constexpr std::uint32_t kDefaultMxcsr = 0x1f80;
constexpr std::uint16_t kDefaultX87Cw = 0x037f;

}  // namespace

struct Machine::Fiber {
    void* sp = nullptr;        ///< saved stack pointer while switched out
    EhGlobals eh;              ///< saved while this context is switched out
    void* map = nullptr;       ///< mmap'd stack (guard page lowest), or null
    const void* stack_lo = nullptr; ///< usable stack, for ASan annotations
    std::size_t stack_size = 0;

    /// The engine context: runs on run()'s caller stack, whose bounds ASan
    /// reports on the first switch into each rank.
    Fiber() = default;

    /// A rank fiber whose first switch-in calls Machine::fiber_entry(m).
    explicit Fiber(Machine* m) {
        const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        map = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
        if (map == MAP_FAILED) {
            map = nullptr;
            throw Error("mmap of a rank fiber stack failed");
        }
        if (mprotect(map, page, PROT_NONE) != 0) {
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
        // The frame sits at the (16-byte aligned) top of the stack, so the
        // trampoline's call leaves the entry function the ABI's alignment.
        char* top = static_cast<char*>(map) + kStackBytes;
        auto* frame = reinterpret_cast<SwitchFrame*>(top) - 1;
        *frame = SwitchFrame{};
        frame->mxcsr = kDefaultMxcsr;
        frame->x87_cw = kDefaultX87Cw;
        frame->r13 = &Machine::fiber_entry;
        frame->r12 = m;
        frame->ret = &dynmpi_fiber_start;
        sp = frame;
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
        dynmpi_fiber_switch(&sp, to.sp);
#ifdef DYNMPI_ASAN_FIBERS
        __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    }
};

Machine::Machine(const sim::ClusterConfig& config) : cluster_(config) {
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
        using support::CounterId;
        using support::GaugeId;
        auto& mx = support::metrics();
        // Indexed by TagSpace: user, collective, runtime.
        static constexpr CounterId kMessages[3] = {
            CounterId::MachineMessagesUser,
            CounterId::MachineMessagesCollective,
            CounterId::MachineMessagesRuntime};
        static constexpr CounterId kBytes[3] = {
            CounterId::MachineBytesUser, CounterId::MachineBytesCollective,
            CounterId::MachineBytesRuntime};
        for (std::size_t s = 0; s < 3; ++s) {
            mx.counter(kMessages[s]).add(traffic_.messages[s]);
            mx.counter(kBytes[s]).add(traffic_.bytes[s]);
        }
        mx.counter(CounterId::MachineMessagesControl)
            .add(traffic_.control_messages);
        mx.counter(CounterId::MachineBytesControl).add(traffic_.control_bytes);
        mx.counter(CounterId::MachineRuns).add(1);
        mx.gauge(GaugeId::MachineElapsedS).set(elapsed_);
        mx.counter(CounterId::SimEventsFired).add(eng.events_fired());
        mx.gauge(GaugeId::SimPeakPendingEvents)
            .set(static_cast<double>(eng.peak_pending_events()));
        mx.gauge(GaugeId::SimPendingEvents)
            .set(static_cast<double>(eng.pending_events()));
    }
    if (support::trace().enabled()) {
        using support::targ;
        support::trace().instant(
            elapsed_, /*rank=*/-1, support::InstantId::MachineRunEnd,
            {targ("elapsed_s", elapsed_),
             targ("messages", traffic_.total_messages()),
             targ("bytes", traffic_.total_bytes()),
             targ("control_messages", traffic_.control_messages),
             targ("events_fired", eng.events_fired()),
             targ("peak_pending_events",
                  static_cast<std::uint64_t>(eng.peak_pending_events()))});
    }
}

void Machine::fiber_entry(Machine* m) noexcept { m->fiber_main(); }

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
        // The dying rank wakes to unwind via NodeCrashed, whether it was
        // blocked in a recv, a compute, or a sleep.
        if (r != node) {
            if (!rs.recv) continue;
            if (tag_space(rs.recv->tag) != TagSpace::User)
                rs.wake = RecvWake::Revoked; // user traffic is never revoked
            else if (rs.recv->src == node)
                rs.wake = RecvWake::PeerFailed; // would wait forever
            else
                continue;
        }
        rs.recv.reset();
        eng.at(eng.now(), [this, r] { resume_rank(r); });
    }
}

void Machine::on_delivery(sim::Packet&& p) {
    const int dst = p.dst;
    if (p.control) {
        ++traffic_.control_messages;
        traffic_.control_bytes += p.charged_bytes();
    } else {
        auto space = static_cast<std::size_t>(tag_space(p.tag));
        DYNMPI_CHECK(space < 3, "unknown tag space");
        ++traffic_.messages[space];
        traffic_.bytes[space] += p.charged_bytes();
    }
    RankState& rs = state(dst);
    if (!rs.recv || !rs.recv->matches(p)) {
        rs.mailbox.push_back(std::move(p));
        return;
    }
    rs.recv.reset();
    rs.recv_result = std::move(p);
    // A blocked process that becomes runnable on a loaded node waits for the
    // scheduler (wake-up latency).
    double delay = cluster_.node(dst).cpu().next_wake_delay();
    if (delay > 0.0) {
        std::uint64_t inc = incarnation(dst);
        cluster_.engine().after(
            sim::from_seconds(delay),
            [this, dst, inc] { resume_rank_inc(dst, inc); });
    } else {
        resume_rank(dst);
    }
}

}  // namespace dynmpi::msg
