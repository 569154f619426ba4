// The runtime's control messages (paper §4.4), as typed structs with free
// encode/decode functions over support/wire.hpp.
//
// - LoadSnapshot: relative rank 0's view of every node's load at a decision
//   point, broadcast within the active set (the one consistent reading of
//   the daemon mesh that every rank decides on).
// - Bootstrap: the leader's hand-off to a revived node, so it can rejoin as
//   a removed follower of the status channel.
// - Status: relative rank 0's per-cycle message to every removed node,
//   either a steady heartbeat (the active set) or a re-add instruction
//   (both layouts of the coming redistribution and the state to adopt).
//
// Every field is 8 bytes on the wire: integers as u64, reals as f64, flags
// as u64 0/1.  Decoding checks each count against the bytes left before
// sizing anything, range-checks member ids against the world and block
// counts against the row space, and rejects trailing bytes; any malformed
// message throws Error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dynmpi/comm_model.hpp"

namespace dynmpi {

struct LoadSnapshot {
    // Per world rank.
    std::vector<double> loads;      ///< dmpi_ps average competing, >= 0
    std::vector<char> quarantined;  ///< sits out of balancing
    std::vector<char> joinable;     ///< may be (re)admitted to the active set
};

struct Bootstrap {
    std::uint64_t next_cycle = 0; ///< first cycle whose status it follows
    std::uint64_t redist_seq = 0, sendout_seq = 0;
    std::vector<int> active;
    // Per world rank.
    std::vector<double> baseline_loads, speeds, memories;
    std::vector<char> quarantined;
    CommCosts comm_costs;
    /// The leader's collective counters (msg::Rank::export_group_seqs).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> group_seqs;
};

struct Status {
    bool readd = false;
    /// Steady: the active set after this cycle.  Re-add: the new layout.
    std::vector<int> active, counts;
    // Re-add only: the layout being left and the state to adopt.
    std::vector<int> old_active, old_counts;
    std::uint64_t redist_seq = 0;
    std::vector<double> row_costs;   ///< per global row
    std::vector<double> loads;       ///< per world rank
    std::vector<char> quarantined;   ///< per world rank
};

std::vector<std::byte> encode(const LoadSnapshot& s);
std::vector<std::byte> encode(const Bootstrap& b);
std::vector<std::byte> encode(const Status& s);

/// Also rejects a load that is negative or not finite.
LoadSnapshot decode_load_snapshot(const std::vector<std::byte>& bytes,
                                  int world);
Bootstrap decode_bootstrap(const std::vector<std::byte>& bytes, int world);
Status decode_status(const std::vector<std::byte>& bytes, int world,
                     int global_rows);

}  // namespace dynmpi
