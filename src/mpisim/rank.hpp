// Per-rank API surface seen by SPMD programs.
//
// A Rank wraps "this process on this node": virtual compute, point-to-point
// messaging, clocks, and access to the node's load sensors.  Blocking calls
// switch the rank's fiber back to the engine; the rank resumes when its wake
// event fires.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mpisim/machine.hpp"
#include "mpisim/tags.hpp"
#include "sim/ps_daemon.hpp"

namespace dynmpi::msg {

/// Per-row measured timings from a compute batch (see Cpu::reconstruct_rows).
struct RowTimings {
    std::vector<double> wall; ///< gethrtime-style, with scheduling jitter
    std::vector<double> cpu;  ///< /proc-style, exact (reader quantizes)
};

class Rank {
public:
    Rank(Machine& machine, int id) : machine_(machine), id_(id) {}

    /// The rank whose program is running on this thread, or nullptr while
    /// the engine runs.  The Machine updates it at every fiber switch.
    static Rank* current() { return current_; }

    int id() const { return id_; }
    int size() const { return machine_.num_ranks(); }
    Machine& machine() { return machine_; }
    sim::Node& node() { return machine_.cluster().node(id_); }
    sim::PsDaemon& ps_daemon() { return machine_.cluster().daemon(id_); }
    const sim::NetParams& net_params() const {
        return machine_.cluster().network().params();
    }

    // ---- clocks (paper §4.2) ----

    /// gethrtime equivalent: virtual wall-clock seconds.
    double hrtime() const;

    /// /proc equivalent: this process's CPU seconds, quantized to the jiffy.
    double proc_cpu_time() const;

    // ---- compute ----

    /// Burn `ref_sec` reference-CPU seconds of work (blocking).
    void compute(double ref_sec);

    /// Burn a batch of per-row work and return measured per-row timings.
    RowTimings compute_rows(const std::vector<double>& row_ref_sec);

    /// Block for `sec` of virtual wall time without using the CPU.
    void sleep(double sec);

    // ---- point-to-point ----

    /// Blocking eager send of `bytes` to rank `dst`.  Returns once the local
    /// CPU work (packetization/copy) is done and the message is queued on the
    /// NIC; delivery completes asynchronously.  The model charges `charged`
    /// bytes (wire time, both sides' CPU cost, traffic counters) but copies
    /// only `bytes`; 0 charges `bytes`, and a smaller non-zero size throws.
    void send(int dst, int tag, const void* data, std::size_t bytes,
              std::size_t charged = 0);

    /// Blocking receive matching (src, tag); wildcards kAnySource/kAnyTag.
    /// Returns the copied byte count; throws if the buffer is too small.
    std::size_t recv(int src, int tag, void* data, std::size_t capacity,
                     int* out_src = nullptr, int* out_tag = nullptr);

    // ---- internal-tagged traffic (collectives / Dyn-MPI runtime) ----

    /// Charges the send's CPU cost, then copies `data` into the packet.
    void send_wire(int dst, std::uint64_t wire_tag, const void* data,
                   std::size_t bytes);
    /// Same wire effect, but the packet shares `payload` (or takes a
    /// vector) without a copy.
    void send_wire(int dst, std::uint64_t wire_tag, sim::Payload payload);
    /// The received bytes, shared with every packet that still holds them.
    sim::Payload recv_payload(int src, std::uint64_t wire_tag);
    /// The received bytes as an owned vector: moved out of the packet when
    /// nothing else shares them, copied otherwise.
    std::vector<std::byte> recv_wire(int src, std::uint64_t wire_tag);

    // ---- control plane (daemon-band traffic) ----
    // While a ControlScope is alive, wire-level sends/recvs on this rank are
    // marked control: no CPU charge, no NIC serialization (they model the
    // dmpi_ps daemons' out-of-band gossip, not application messages).
    class ControlScope {
    public:
        /// enable=false re-enters the data plane inside a control scope
        /// (e.g. a redistribution triggered from the monitoring path still
        /// ships application data at full cost).
        explicit ControlScope(Rank& rank, bool enable = true) : rank_(rank) {
            prev_ = rank_.control_mode_;
            rank_.control_mode_ = enable;
        }
        ~ControlScope() { rank_.control_mode_ = prev_; }
        ControlScope(const ControlScope&) = delete;
        ControlScope& operator=(const ControlScope&) = delete;

    private:
        Rank& rank_;
        bool prev_;
    };

    // ---- failure handling ----

    /// Acknowledge all control revocations issued so far, so the *next*
    /// control-plane receive does not throw EpochRevoked for epochs this
    /// rank has already reacted to.  Recovery loops call this before each
    /// retry attempt.
    void sync_revocations();

    // ---- per-group collective sequence counters (see collectives.hpp) ----
    // Counters are keyed by group hash so that ranks outside a group (e.g.
    // nodes removed from the active set) do not fall out of step.
    std::uint64_t next_group_seq(std::uint64_t group_hash) {
        return group_seq_[group_hash]++;
    }

    /// Snapshot of every group counter, sorted by hash (deterministic).  A
    /// rejoin bootstrap ships the leader's snapshot so a freshly restarted
    /// rank re-enters collectives in step with the survivors.
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    export_group_seqs() const {
        return {group_seq_.begin(), group_seq_.end()};
    }
    void import_group_seqs(
        const std::vector<std::pair<std::uint64_t, std::uint64_t>>& v) {
        for (const auto& [hash, seq] : v) group_seq_[hash] = seq;
    }

    // ---- shim state ----
    // The flat-function shims (MPI_* in mpi_compat, DMPI_* in dmpi_c_api)
    // keep "this rank's" state here and find it through current().  Each
    // slot is owned by this Rank, so it dies when the rank's incarnation
    // unwinds, exactly like the process it models.
    struct ShimState {
        virtual ~ShimState() = default;
    };
    enum class Shim { Mpi, Dmpi };
    std::unique_ptr<ShimState>& shim_state(Shim s) {
        return shims_[static_cast<std::size_t>(s)];
    }

private:
    friend class Machine;

    // constinit, so no TLS init wrapper is emitted: at -O2, UBSan's null
    // check on this variable's address took its flags from a test of that
    // (absent) wrapper and reported a null store that never happened.
    static inline constinit thread_local Rank* current_ = nullptr;

    /// Core blocking receive: the oldest packet `m` accepts (recv and
    /// recv_payload add the CPU cost).
    sim::Packet recv_packet(const RecvMatch& m);
    void charge_recv_cost(std::size_t bytes);
    /// The CPU component of a send (data plane only).
    void charge_send_cost(int dst, std::size_t bytes);
    /// Hand `payload` to the network, retrying transient failures.
    void transmit_wire(int dst, std::uint64_t wire_tag, sim::Payload payload,
                       std::size_t charged = 0);

    Machine& machine_;
    int id_;
    bool control_mode_ = false;
    // Ordered so export_group_seqs() — the rejoin-bootstrap payload — walks
    // counters in hash order without a sort.
    std::map<std::uint64_t, std::uint64_t> group_seq_;
    // Last member: shim state is destroyed first, while the rest of the Rank
    // it may refer to is still intact.
    std::array<std::unique_ptr<ShimState>, 2> shims_;
};

}  // namespace dynmpi::msg
