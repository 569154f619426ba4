#include "mpisim/rank.hpp"

#include <cmath>
#include <numeric>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dynmpi::msg {

thread_local Rank* Rank::current_ = nullptr;

double Rank::hrtime() const {
    return sim::to_seconds(machine_.cluster().engine().now());
}

double Rank::exact_cpu_time() const {
    return machine_.cluster().node(id_).cpu().app_cpu_seconds();
}

double Rank::proc_cpu_time() const {
    const sim::Cpu& cpu = machine_.cluster().node(id_).cpu();
    double jiffy = cpu.params().jiffy_s;
    return std::floor(cpu.app_cpu_seconds() / jiffy) * jiffy;
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

void Rank::send_wire(int dst, std::uint64_t wire_tag, const void* data,
                     std::size_t bytes) {
    DYNMPI_REQUIRE(dst >= 0 && dst < size(), "send to invalid rank");
    // CPU component of communication: packetization + copy, shared with any
    // competing processes on this node.  Control-plane traffic is daemon
    // work, not application work.
    if (!control_mode_) compute(net_params().cpu_cost(bytes));
    const int retries = std::max(0, net_params().send_retries);
    for (int attempt = 0; ; ++attempt) {
        sim::Packet p;
        p.src = id_;
        p.dst = dst;
        p.tag = wire_tag;
        p.control = control_mode_;
        p.payload.resize(bytes);
        if (bytes > 0)
            std::memcpy(p.payload.data(), data, bytes);
        if (machine_.cluster().network().transmit(std::move(p))) return;
        // Transient send failure: bounded retry with exponential backoff.
        // Retried packets are byte-identical, so a duplicate that does get
        // through is matched (or orphaned) exactly like the original.
        if (attempt >= retries) return; // give up; peer sees a lost message
        if (support::trace().enabled()) {
            using support::targ;
            support::trace().instant(hrtime(), id_, "net.send_retry",
                                     {targ("src", id_), targ("dst", dst),
                                      targ("attempt", attempt + 1)});
        }
        if (support::metrics().enabled())
            support::metrics().counter("net.send_retries").add(1);
        sleep(net_params().send_backoff_s * static_cast<double>(1 << attempt));
    }
}

void Rank::send(int dst, int tag, const void* data, std::size_t bytes) {
    DYNMPI_REQUIRE(tag >= 0, "user tags must be non-negative");
    send_wire(dst, wire_tag(tag), data, bytes);
}

namespace {
bool packet_matches(const sim::Packet& p, int src, std::uint64_t tag,
                    bool any_tag) {
    bool src_ok = src == kAnySource || src == p.src;
    bool tag_ok = any_tag ? tag_space(p.tag) == tag_space(tag) : p.tag == tag;
    return src_ok && tag_ok;
}
}  // namespace

sim::Packet Rank::recv_packet(int src, std::uint64_t tag, bool any_tag) {
    DYNMPI_REQUIRE(src == kAnySource || (src >= 0 && src < size()),
                   "recv from invalid rank");
    auto& rs = machine_.state(id_);
    if (tag_space(tag) != TagSpace::User &&
        rs.seen_revoke < machine_.revoke_epoch()) {
        // A revocation epoch started since this rank last checked: abandon
        // the protocol round before entering a doomed control-plane recv.
        rs.seen_revoke = machine_.revoke_epoch();
        throw EpochRevoked{};
    }
    for (auto it = rs.mailbox.begin(); it != rs.mailbox.end(); ++it) {
        if (packet_matches(*it, src, tag, any_tag)) {
            sim::Packet p = std::move(*it);
            rs.mailbox.erase(it);
            return p;
        }
    }
    if (src != kAnySource && machine_.cluster().node_crashed(src))
        throw PeerFailure{src}; // would block forever: fail locally instead
    rs.recv_waiting = true;
    rs.recv_src = src;
    rs.recv_tag = tag;
    rs.recv_any_tag = any_tag;
    rs.recv_space = static_cast<std::int64_t>(tag_space(tag));
    machine_.yield_from_rank(id_);
    if (rs.revoked) {
        rs.revoked = false;
        rs.seen_revoke = machine_.revoke_epoch();
        throw EpochRevoked{};
    }
    if (rs.peer_failed) {
        rs.peer_failed = false;
        int peer = rs.failed_peer;
        rs.failed_peer = -1;
        throw PeerFailure{peer};
    }
    DYNMPI_CHECK(!rs.recv_waiting, "woke from recv without a message");
    return std::move(rs.recv_result);
}

std::size_t Rank::recv(int src, int tag, void* data, std::size_t capacity,
                       int* out_src, int* out_tag) {
    bool any_tag = tag == kAnyTag;
    std::uint64_t wt = any_tag ? make_tag(TagSpace::User, 0)
                               : wire_tag(tag);
    sim::Packet p = recv_packet(src, wt, any_tag);
    DYNMPI_REQUIRE(p.payload.size() <= capacity,
                   "recv buffer too small for message");
    charge_recv_cost(p.payload.size());
    if (!p.payload.empty())
        std::memcpy(data, p.payload.data(), p.payload.size());
    if (out_src) *out_src = p.src;
    if (out_tag) *out_tag = static_cast<int>(tag_value(p.tag));
    return p.payload.size();
}

void Rank::sendrecv(int dst, int send_tag, const void* send_data,
                    std::size_t send_bytes, int src, int recv_tag,
                    void* recv_data, std::size_t recv_capacity) {
    send(dst, send_tag, send_data, send_bytes);
    recv(src, recv_tag, recv_data, recv_capacity);
}

bool Rank::probe(int src, int tag) const {
    const auto& rs = machine_.state(id_);
    bool any_tag = tag == kAnyTag;
    std::uint64_t wt = any_tag ? make_tag(TagSpace::User, 0) : wire_tag(tag);
    for (const auto& p : rs.mailbox)
        if (packet_matches(p, src, wt, any_tag)) return true;
    return false;
}

Request Rank::isend(int dst, int tag, const void* data, std::size_t bytes) {
    send(dst, tag, data, bytes);
    Request r;
    r.kind_ = Request::Kind::Send;
    r.peer_ = dst;
    r.complete_ = true;
    return r;
}

Request Rank::irecv(int src, int tag, void* data, std::size_t capacity) {
    DYNMPI_REQUIRE(src == kAnySource || (src >= 0 && src < size()),
                   "irecv from invalid rank");
    Request r;
    r.kind_ = Request::Kind::Recv;
    r.peer_ = src;
    r.any_tag_ = tag == kAnyTag;
    r.wire_tag_ = r.any_tag_ ? make_tag(TagSpace::User, 0) : wire_tag(tag);
    r.buffer_ = data;
    r.capacity_ = capacity;
    return r;
}

std::size_t Rank::wait(Request& req) {
    DYNMPI_REQUIRE(req.valid(), "wait on null request");
    if (req.complete_) return req.received_;
    DYNMPI_CHECK(req.kind_ == Request::Kind::Recv,
                 "incomplete non-receive request");
    sim::Packet p = recv_packet(req.peer_, req.wire_tag_, req.any_tag_);
    DYNMPI_REQUIRE(p.payload.size() <= req.capacity_,
                   "irecv buffer too small for message");
    charge_recv_cost(p.payload.size());
    if (!p.payload.empty())
        std::memcpy(req.buffer_, p.payload.data(), p.payload.size());
    req.received_ = p.payload.size();
    req.actual_src_ = p.src;
    req.complete_ = true;
    return req.received_;
}

bool Rank::test(Request& req) {
    DYNMPI_REQUIRE(req.valid(), "test on null request");
    if (req.complete_) return true;
    // A buffered match can be consumed without blocking.
    const auto& rs = machine_.state(id_);
    for (const auto& p : rs.mailbox) {
        bool src_ok = req.peer_ == kAnySource || req.peer_ == p.src;
        bool tag_ok = req.any_tag_
                          ? tag_space(p.tag) == tag_space(req.wire_tag_)
                          : p.tag == req.wire_tag_;
        if (src_ok && tag_ok) {
            wait(req); // completes immediately from the mailbox
            return true;
        }
    }
    return false;
}

void Rank::waitall(std::vector<Request>& reqs) {
    for (auto& r : reqs) wait(r);
}

std::vector<std::byte> Rank::recv_wire(int src, std::uint64_t wire_tag) {
    sim::Packet p = recv_packet(src, wire_tag, false);
    charge_recv_cost(p.payload.size());
    return std::move(p.payload);
}

void Rank::sync_revocations() {
    machine_.state(id_).seen_revoke = machine_.revoke_epoch();
}

void Rank::revoke_control() {
    machine_.revoke_control_recvs();
    sync_revocations();
}

}  // namespace dynmpi::msg
