#include "mpisim/rank.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dynmpi::msg {

double Rank::hrtime() const {
    return sim::to_seconds(machine_.cluster().engine().now());
}

double Rank::proc_cpu_time() const {
    const double cpu = machine_.cluster().node(id_).cpu().app_cpu_seconds();
    return std::floor(cpu / sim::kJiffyS) * sim::kJiffyS;
}

void Rank::compute(double ref_sec) {
    DYNMPI_REQUIRE(ref_sec >= 0.0, "negative compute cost");
    if (ref_sec == 0.0) return;
    // Capture the machine, not the Rank: if this node crashes mid-batch the
    // Rank object unwinds with its fiber, but the stored callback may
    // outlive it (resume_rank tolerates the stale wake).
    Machine* m = &machine_;
    const int r = id_;
    node().cpu().start_batch(ref_sec, [m, r] { m->resume_rank(r); });
    machine_.yield_from_rank(id_);
}

RowTimings Rank::compute_rows(const std::vector<double>& row_ref_sec) {
    sim::Cpu& cpu = node().cpu();
    sim::SimTime t0 = machine_.cluster().engine().now();
    std::uint64_t batch_seed = cpu.batches_run() + 1;
    double total =
        std::accumulate(row_ref_sec.begin(), row_ref_sec.end(), 0.0);
    compute(total);
    auto rt = cpu.reconstruct_rows(row_ref_sec, t0, batch_seed);
    return RowTimings{std::move(rt.wall), std::move(rt.cpu)};
}

void Rank::sleep(double sec) {
    DYNMPI_REQUIRE(sec >= 0.0, "negative sleep");
    // Same as compute: the wake event must not dangle if this node crashes
    // before it fires — and must not fire into a revived incarnation either.
    Machine* m = &machine_;
    const int r = id_;
    const std::uint64_t inc = machine_.incarnation(r);
    machine_.cluster().engine().after(
        sim::from_seconds(sec), [m, r, inc] { m->resume_rank_inc(r, inc); });
    machine_.yield_from_rank(id_);
}

void Rank::charge_recv_cost(std::size_t bytes) {
    if (control_mode_) return; // daemon-band traffic is not app CPU
    compute(net_params().cpu_cost(bytes));
}

void Rank::charge_send_cost(int dst, std::size_t bytes) {
    DYNMPI_REQUIRE(dst >= 0 && dst < size(), "send to invalid rank");
    // CPU component of communication: packetization + copy, shared with any
    // competing processes on this node.  Control-plane traffic is daemon
    // work, not application work.
    if (!control_mode_) compute(net_params().cpu_cost(bytes));
}

void Rank::send_wire(int dst, std::uint64_t wire_tag, const void* data,
                     std::size_t bytes) {
    // Charge first: the compute yields, and the copy must not live across
    // it.
    charge_send_cost(dst, bytes);
    transmit_wire(dst, wire_tag, sim::Payload(data, bytes));
}

void Rank::send_wire(int dst, std::uint64_t wire_tag, sim::Payload payload) {
    charge_send_cost(dst, payload.size());
    transmit_wire(dst, wire_tag, std::move(payload));
}

void Rank::transmit_wire(int dst, std::uint64_t wire_tag,
                         sim::Payload payload, std::size_t charged) {
    sim::Packet p;
    p.src = id_;
    p.dst = dst;
    p.tag = wire_tag;
    p.control = control_mode_;
    p.payload = std::move(payload);
    p.charged = charged;
    const int retries = std::max(0, net_params().send_retries);
    for (int attempt = 0; ; ++attempt) {
        // A failed transmit leaves the packet intact, so a retry resends
        // the same bytes: a duplicate that does get through is matched (or
        // orphaned) exactly like the original.
        if (machine_.cluster().network().transmit(std::move(p))) return;
        // Transient send failure: bounded retry with exponential backoff.
        if (attempt >= retries) return; // give up; peer sees a lost message
        if (support::trace().enabled()) {
            using support::targ;
            support::trace().instant(hrtime(), id_,
                                     support::InstantId::NetSendRetry,
                                     {targ("src", id_), targ("dst", dst),
                                      targ("attempt", attempt + 1)});
        }
        if (support::metrics().enabled())
            support::metrics()
                .counter(support::CounterId::NetSendRetries)
                .add(1);
        sleep(net_params().send_backoff_s * static_cast<double>(1 << attempt));
    }
}

void Rank::send(int dst, int tag, const void* data, std::size_t bytes,
                std::size_t charged) {
    DYNMPI_REQUIRE(tag >= 0, "user tags must be non-negative");
    DYNMPI_REQUIRE(charged == 0 || charged >= bytes,
                   "charged size below the copied bytes");
    // As send_wire: charge first, copy after the yield.
    charge_send_cost(dst, std::max(charged, bytes));
    transmit_wire(dst,
                  make_tag(TagSpace::User, static_cast<std::uint64_t>(tag)),
                  sim::Payload(data, bytes), charged);
}

sim::Packet Rank::recv_packet(const RecvMatch& m) {
    DYNMPI_REQUIRE(m.src == kAnySource || (m.src >= 0 && m.src < size()),
                   "recv from invalid rank");
    auto& rs = machine_.state(id_);
    if (tag_space(m.tag) != TagSpace::User &&
        rs.seen_revoke < machine_.revoke_epoch()) {
        // A revocation epoch started since this rank last checked: abandon
        // the protocol round before entering a doomed control-plane recv.
        rs.seen_revoke = machine_.revoke_epoch();
        throw EpochRevoked{};
    }
    auto& box = rs.mailbox;
    const auto it = std::find_if(box.begin(), box.end(),
                                 [&m](const auto& p) { return m.matches(p); });
    if (it != box.end()) {
        sim::Packet p = std::move(*it);
        box.erase(it);
        return p;
    }
    if (m.src != kAnySource && machine_.cluster().node_crashed(m.src))
        throw PeerFailure{m.src}; // would block forever: fail locally instead
    rs.recv = m;
    machine_.yield_from_rank(id_);
    const auto wake = std::exchange(rs.wake, Machine::RecvWake::Matched);
    if (wake == Machine::RecvWake::Revoked) {
        rs.seen_revoke = machine_.revoke_epoch();
        throw EpochRevoked{};
    }
    if (wake == Machine::RecvWake::PeerFailed) throw PeerFailure{m.src};
    DYNMPI_CHECK(!rs.recv, "woke from recv without a message");
    return std::move(rs.recv_result);
}

std::size_t Rank::recv(int src, int tag, void* data, std::size_t capacity,
                       int* out_src, int* out_tag) {
    DYNMPI_REQUIRE(tag >= 0 || tag == kAnyTag,
                   "user tags must be non-negative");
    const bool any_tag = tag == kAnyTag;
    sim::Packet p = recv_packet(RecvMatch{
        src,
        make_tag(TagSpace::User, any_tag ? 0 : static_cast<std::uint64_t>(tag)),
        any_tag});
    DYNMPI_REQUIRE(p.payload.size() <= capacity,
                   "recv buffer too small for message");
    charge_recv_cost(p.charged_bytes());
    if (!p.payload.empty())
        std::memcpy(data, p.payload.data(), p.payload.size());
    if (out_src) *out_src = p.src;
    if (out_tag) *out_tag = static_cast<int>(tag_value(p.tag));
    return p.payload.size();
}

sim::Payload Rank::recv_payload(int src, std::uint64_t wire_tag) {
    sim::Packet p = recv_packet(RecvMatch{src, wire_tag, false});
    charge_recv_cost(p.charged_bytes());
    return std::move(p.payload);
}

std::vector<std::byte> Rank::recv_wire(int src, std::uint64_t wire_tag) {
    return recv_payload(src, wire_tag).take();
}

void Rank::sync_revocations() {
    machine_.state(id_).seen_revoke = machine_.revoke_epoch();
}

}  // namespace dynmpi::msg
