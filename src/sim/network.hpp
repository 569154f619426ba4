// Switched-Ethernet network model.
//
// Matches the paper's testbed (switched 100 Mb/s Ethernet): a message from
// src to dst is serialized through the sender's NIC (bytes/bandwidth, FIFO
// per node), crosses the switch with a fixed latency, and is handed to the
// destination's delivery handler.  The switch backplane is not a bottleneck.
//
// The *CPU* cost of communication (per-message overhead plus per-byte copy
// cost) is deliberately kept in NetParams but charged by the message layer
// through the node's Cpu — that CPU component is what makes naive
// relative-power distributions suboptimal (paper §4.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace dynmpi::sim {

struct NetParams {
    double latency_s = 1e-4;      ///< one-way wire+switch latency
    double bandwidth_Bps = 12.5e6; ///< 100 Mb/s
    double cpu_per_msg_s = 5e-5;  ///< sender/receiver CPU overhead per message
    double cpu_per_byte_s = 2e-9; ///< CPU copy cost per byte on each side
    double self_latency_s = 1e-6; ///< loopback delivery latency
    int send_retries = 4;         ///< bounded resend attempts on send failure
    double send_backoff_s = 1e-3; ///< base backoff, doubled per attempt

    /// CPU seconds a host spends handling one message of `bytes` bytes.
    double cpu_cost(std::size_t bytes) const {
        return cpu_per_msg_s + cpu_per_byte_s * static_cast<double>(bytes);
    }
};

/// A packet's bytes: immutable once built and shared by reference count,
/// so copying a packet copies no bytes and a broadcast forwards the buffer
/// it received to every child.  An empty payload holds no buffer.
class Payload {
public:
    Payload() = default;
    /// Takes the bytes without a copy (implicit: an encoded blob is sent as
    /// is).
    Payload(std::vector<std::byte> bytes)
        : bytes_(bytes.empty() ? nullptr
                               : std::make_shared<std::vector<std::byte>>(
                                     std::move(bytes))) {}
    /// Copies `size` bytes from `data`.
    Payload(const void* data, std::size_t size)
        : bytes_(size == 0 ? nullptr
                           : std::make_shared<std::vector<std::byte>>(
                                 static_cast<const std::byte*>(data),
                                 static_cast<const std::byte*>(data) + size)) {}

    const std::byte* data() const { return bytes_ ? bytes_->data() : nullptr; }
    std::size_t size() const { return bytes_ ? bytes_->size() : 0; }
    bool empty() const { return size() == 0; }

    /// The bytes as an owned vector, leaving this payload empty: moved out
    /// when this is the only reference, copied otherwise.
    std::vector<std::byte> take() &&;

private:
    // Never written through once built: every packet holding it reads the
    // same bytes.
    std::shared_ptr<std::vector<std::byte>> bytes_;
};

/// A message in flight.  Tag semantics belong to the message layer.  A copy
/// shares the payload.
struct Packet {
    int src = -1;
    int dst = -1;
    std::uint64_t tag = 0;
    /// Control-plane (daemon-band) traffic: skips NIC serialization and is
    /// not charged to the application CPU — the dmpi_ps daemons gossip load
    /// and coordination data out-of-band (paper §4.2).
    bool control = false;
    Payload payload;
    /// Bytes the model charges for this packet: NIC serialization, the CPU
    /// cost on both sides and the traffic counters.  0 charges the
    /// payload's own size; a stencil halo copies only its computed columns
    /// but charges the paper's whole row (DESIGN.md §2).
    std::size_t charged = 0;

    std::size_t charged_bytes() const {
        return charged != 0 ? charged : payload.size();
    }
};

class Network {
public:
    Network(Engine& engine, NetParams params, int num_nodes);

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /// Install the upcall invoked (at delivery time) for every packet.
    void set_delivery_handler(std::function<void(Packet&&)> handler);

    /// Inject a packet at the sender's NIC at the current virtual time.
    /// Serialization and latency are applied; delivery fires later.
    /// Returns false iff the send failed transiently (an armed fault token
    /// was consumed) — the caller may retry, and `p` is then left intact
    /// for that.  Packets touching a crashed
    /// node are dropped silently but "succeed": a dead peer looks exactly
    /// like an unresponsive one to the sender.
    bool transmit(Packet&& p);

    // ---- fault hooks ----

    /// Mark a node as crashed: all future traffic to or from it (including
    /// packets already in flight toward it) is discarded.
    void mark_crashed(int node);
    bool crashed(int node) const {
        return crashed_[static_cast<std::size_t>(node)] != 0;
    }

    /// Restore service to a revived node (undoes mark_crashed).  Packets
    /// dropped while it was down stay dropped.
    void mark_alive(int node);

    /// Arm `count` transient failures: the next `count` data-plane sends
    /// from `node` return false from transmit().
    void add_send_failures(int node, int count);

    /// Cluster-wide extra one-way latency (0 restores normal service).
    void set_extra_latency(double seconds);
    double extra_latency() const { return extra_latency_; }

    const NetParams& params() const { return params_; }

    /// Pure model query: wall seconds for `bytes` to cross one link unloaded
    /// (serialization + latency), excluding host CPU costs.
    double wire_time(std::size_t bytes) const {
        return params_.latency_s +
               static_cast<double>(bytes) / params_.bandwidth_Bps;
    }

    std::uint64_t messages_sent() const { return messages_; }
    std::uint64_t bytes_sent() const { return bytes_; }
    std::uint64_t send_failures() const { return send_failures_; }

private:
    Engine& engine_;
    NetParams params_;
    std::vector<SimTime> nic_free_; ///< per-node earliest NIC availability
    std::function<void(Packet&&)> deliver_;
    std::uint64_t messages_ = 0;
    std::uint64_t bytes_ = 0;
    std::vector<char> crashed_;    ///< per-node crashed flag
    std::vector<int> fail_tokens_; ///< per-node armed transient send failures
    double extra_latency_ = 0.0;   ///< injected cluster-wide latency spike
    std::uint64_t send_failures_ = 0;
};

}  // namespace dynmpi::sim
