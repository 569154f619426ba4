#include "dynmpi/control_wire.hpp"

#include <cmath>

#include "support/wire.hpp"

namespace dynmpi {

namespace {
void put_ints(WireWriter& w, const std::vector<int>& v) {
    for (int x : v) w.u64(static_cast<std::uint64_t>(x));
}

/// `n` u64 values, each in [0, bound).
std::vector<int> get_ints(WireReader& r, std::size_t n, int bound) {
    std::vector<int> v(n);
    for (int& x : v) x = r.below(bound);
    return v;
}
}  // namespace

std::vector<std::byte> encode(const LoadSnapshot& s) {
    WireWriter w(24 * s.loads.size());
    for (double l : s.loads) w.f64(l);
    for (char q : s.quarantined) w.u64(q != 0);
    for (char j : s.joinable) w.u64(j != 0);
    return w.take();
}

LoadSnapshot decode_load_snapshot(const std::vector<std::byte>& bytes,
                                  int world) {
    WireReader r(bytes);
    LoadSnapshot s;
    for (int m = 0; m < world; ++m) {
        const double l = r.f64();
        DYNMPI_REQUIRE(std::isfinite(l) && l >= 0.0,
                       "load snapshot carries a bad load");
        s.loads.push_back(l);
    }
    for (int m = 0; m < world; ++m) s.quarantined.push_back(r.below(2) != 0);
    for (int m = 0; m < world; ++m) s.joinable.push_back(r.below(2) != 0);
    r.finish();
    return s;
}

std::vector<std::byte> encode(const Bootstrap& b) {
    WireWriter w;
    w.u64(b.next_cycle);
    w.u64(b.redist_seq);
    w.u64(b.sendout_seq);
    w.u64(b.active.size());
    put_ints(w, b.active);
    for (std::size_t m = 0; m < b.speeds.size(); ++m) {
        w.f64(b.baseline_loads[m]);
        w.f64(b.speeds[m]);
        w.f64(b.memories[m]);
        w.u64(b.quarantined[m] != 0);
    }
    w.f64(b.comm_costs.latency_s);
    w.f64(b.comm_costs.bandwidth_Bps);
    w.f64(b.comm_costs.cpu_per_msg_s);
    w.f64(b.comm_costs.cpu_per_byte_s);
    w.u64(b.group_seqs.size());
    for (const auto& [hash, seq] : b.group_seqs) {
        w.u64(hash);
        w.u64(seq);
    }
    return w.take();
}

Bootstrap decode_bootstrap(const std::vector<std::byte>& bytes, int world) {
    WireReader r(bytes);
    Bootstrap b;
    b.next_cycle = r.u64();
    b.redist_seq = r.u64();
    b.sendout_seq = r.u64();
    b.active = get_ints(r, r.count(8), world);
    for (int m = 0; m < world; ++m) {
        b.baseline_loads.push_back(r.f64());
        b.speeds.push_back(r.f64());
        b.memories.push_back(r.f64());
        b.quarantined.push_back(r.below(2) != 0);
    }
    b.comm_costs.latency_s = r.f64();
    b.comm_costs.bandwidth_Bps = r.f64();
    b.comm_costs.cpu_per_msg_s = r.f64();
    b.comm_costs.cpu_per_byte_s = r.f64();
    b.group_seqs.resize(r.count(16));
    for (auto& [hash, seq] : b.group_seqs) {
        hash = r.u64();
        seq = r.u64();
    }
    r.finish();
    return b;
}

std::vector<std::byte> encode(const Status& s) {
    WireWriter w;
    w.u64(s.readd ? 1 : 0); // kind: 0 steady, 1 re-add
    if (s.readd) {
        w.u64(s.old_active.size());
        put_ints(w, s.old_active);
        put_ints(w, s.old_counts);
    }
    w.u64(s.active.size());
    put_ints(w, s.active);
    if (!s.readd) return w.take();
    put_ints(w, s.counts);
    w.u64(s.redist_seq);
    for (double c : s.row_costs) w.f64(c);
    for (double l : s.loads) w.f64(l);
    for (char q : s.quarantined) w.u64(q != 0);
    return w.take();
}

Status decode_status(const std::vector<std::byte>& bytes, int world,
                     int global_rows) {
    WireReader r(bytes);
    Status s;
    s.readd = r.below(2) == 1;
    if (!s.readd) {
        s.active = get_ints(r, r.count(8), world);
        r.finish();
        return s;
    }
    // Each layout: a member count, then an id and a block count per member.
    std::size_t n = r.count(16);
    s.old_active = get_ints(r, n, world);
    s.old_counts = get_ints(r, n, global_rows + 1);
    n = r.count(16);
    s.active = get_ints(r, n, world);
    s.counts = get_ints(r, n, global_rows + 1);
    s.redist_seq = r.u64();
    for (int row = 0; row < global_rows; ++row) s.row_costs.push_back(r.f64());
    for (int m = 0; m < world; ++m) s.loads.push_back(r.f64());
    for (int m = 0; m < world; ++m) s.quarantined.push_back(r.below(2) != 0);
    r.finish();
    return s;
}

}  // namespace dynmpi
