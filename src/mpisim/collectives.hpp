// Collective operations over rank groups.
//
// Every collective operates on a Group — an ordered subset of absolute rank
// ids.  A member's position in the group is its *relative rank*, the notion
// Dyn-MPI programs use so that physically removed nodes disappear from the
// numbering (paper §2.2).  All members of a group must execute the same
// sequence of collectives on that group; per-group sequence counters keep
// wire tags aligned even when a rank simultaneously belongs to other groups.
//
// Algorithms are the classic binomial-tree (bcast, reduce) and linear-gather
// variants; with an eager, buffered message layer they are deadlock-free for
// any group size, including singletons.  bcast_payload is the only broadcast
// tree: every member forwards the payload it received to its children
// without copying it.  bcast is a typed wrapper over it, and allgather is a
// linear gather at member 0 plus two broadcasts; it hands back the one
// broadcast buffer, read in place, rather than a vector per member.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "mpisim/rank.hpp"
#include "mpisim/tags.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi::msg {

/// An ordered set of absolute rank ids taking part in collectives.
class Group {
public:
    Group() = default;
    /// `salt` perturbs the group hash (and therefore every collective tag
    /// drawn from it) without changing membership — failure recovery uses a
    /// crash-epoch salt so retried protocol rounds cannot match stragglers
    /// from an abandoned round.  salt 0 leaves the hash unchanged.
    explicit Group(std::vector<int> members, std::uint64_t salt = 0)
        : members_(std::move(members)) {
        DYNMPI_REQUIRE(!members_.empty(), "group must be non-empty");
        int top = 0;
        for (int m : members_) {
            DYNMPI_REQUIRE(m >= 0, "group member must be a non-negative rank");
            top = std::max(top, m);
        }
        index_.assign(static_cast<std::size_t>(top) + 1, -1);
        std::uint64_t h = splitmix64(members_.size());
        for (int i = 0; i < size(); ++i) {
            const int m = members_[static_cast<std::size_t>(i)];
            int& slot = index_[static_cast<std::size_t>(m)];
            DYNMPI_REQUIRE(slot < 0, "group member listed twice");
            slot = i;
            h = hash_combine(h, static_cast<std::uint64_t>(m));
        }
        if (salt != 0) h = hash_combine(h, splitmix64(salt));
        hash_ = h;
    }

    /// The full machine as one group.
    static Group world(const Rank& rank) {
        std::vector<int> m(static_cast<std::size_t>(rank.size()));
        for (int i = 0; i < rank.size(); ++i) m[static_cast<std::size_t>(i)] = i;
        return Group(std::move(m));
    }

    int size() const { return static_cast<int>(members_.size()); }
    int member(int rel) const {
        DYNMPI_REQUIRE(rel >= 0 && rel < size(), "relative rank out of range");
        return members_[static_cast<std::size_t>(rel)];
    }
    /// Relative rank of an absolute rank, or -1 if not a member: one bounds
    /// check and one load into the index built by the constructor.
    int index_of(int rank) const {
        // A negative rank wraps to a huge index and fails the bounds check.
        const auto r = static_cast<std::size_t>(rank);
        return r < index_.size() ? index_[r] : -1;
    }
    bool contains(int rank) const { return index_of(rank) >= 0; }
    const std::vector<int>& members() const { return members_; }
    std::uint64_t hash() const { return hash_; }

private:
    std::vector<int> members_;
    std::uint64_t hash_ = 0;
    /// Relative rank by absolute rank, -1 for non-members; sized to the
    /// largest member + 1.
    std::vector<int> index_;
};

namespace detail {

/// A received payload as elements of T.  A byte payload moves out when
/// nothing else shares it; any other is copied in one range copy (the
/// buffer comes from operator new, so it is aligned for T).
template <typename T>
std::vector<T> bytes_to_vector(sim::Payload&& raw) {
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (std::is_same_v<T, std::byte>) {
        return std::move(raw).take();
    } else {
        const auto* first = reinterpret_cast<const T*>(raw.data());
        return std::vector<T>(first, first + raw.size() / sizeof(T));
    }
}

inline std::uint64_t coll_tag(const Group& g, std::uint64_t seq) {
    return make_tag(TagSpace::Collective, hash_combine(g.hash(), seq));
}

}  // namespace detail

/// Reduction functors for allreduce/reduce.
struct OpSum {
    template <typename T>
    T operator()(const T& a, const T& b) const { return a + b; }
};
struct OpMin {
    template <typename T>
    T operator()(const T& a, const T& b) const { return a < b ? a : b; }
};
struct OpMax {
    template <typename T>
    T operator()(const T& a, const T& b) const { return a < b ? b : a; }
};

/// Broadcast `data` from the member with relative rank `root` to all members
/// (binomial tree) and return the bytes: `data` itself on the root, the
/// payload received from the parent elsewhere.  Each member forwards that
/// one buffer to its children, so no hop copies it.  Non-roots' `data` is
/// ignored.
inline sim::Payload bcast_payload(Rank& rank, const Group& g, int root,
                                  sim::Payload data) {
    const int n = g.size();
    const int rel = g.index_of(rank.id());
    DYNMPI_REQUIRE(rel >= 0, "bcast by non-member");
    DYNMPI_REQUIRE(root >= 0 && root < n, "bcast root out of range");
    std::uint64_t tag = detail::coll_tag(g, rank.next_group_seq(g.hash()));
    if (n == 1) return data;

    const int vrank = (rel - root + n) % n;
    int mask = 1;
    while (mask < n) {
        if (vrank & mask) {
            int parent = g.member(((vrank - mask) + root) % n);
            data = rank.recv_payload(parent, tag);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (vrank + mask < n) {
            int child = g.member((vrank + mask + root) % n);
            rank.send_wire(child, tag, data);
        }
        mask >>= 1;
    }
    return data;
}

/// Broadcast `data` from the member with relative rank `root` to all members.
/// The root copies `data` once; non-roots receive into (and resize) it.
template <typename T>
void bcast(Rank& rank, const Group& g, int root, std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    // A singleton root sends nothing, so it needs no copy.
    if (g.index_of(rank.id()) == root) {
        bcast_payload(rank, g, root,
                      g.size() == 1 ? sim::Payload()
                                    : sim::Payload(data.data(),
                                                   data.size() * sizeof(T)));
        return;
    }
    data = detail::bytes_to_vector<T>(bcast_payload(rank, g, root, {}));
}

/// Reduce element-wise into the root's copy (binomial tree, commutative op).
/// Returns the reduced vector on the root; other members get their partial.
template <typename T, typename Op>
std::vector<T> reduce(Rank& rank, const Group& g, int root, std::vector<T> data,
                      Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int n = g.size();
    const int rel = g.index_of(rank.id());
    DYNMPI_REQUIRE(rel >= 0, "reduce by non-member");
    std::uint64_t tag = detail::coll_tag(g, rank.next_group_seq(g.hash()));
    if (n == 1) return data;

    const int vrank = (rel - root + n) % n;
    int mask = 1;
    while (mask < n) {
        if ((vrank & mask) == 0) {
            int src_v = vrank | mask;
            if (src_v < n) {
                int src = g.member((src_v + root) % n);
                auto part =
                    detail::bytes_to_vector<T>(rank.recv_payload(src, tag));
                DYNMPI_CHECK(part.size() == data.size(),
                             "reduce length mismatch");
                for (std::size_t i = 0; i < data.size(); ++i)
                    data[i] = op(data[i], part[i]);
            }
        } else {
            int dst = g.member(((vrank & ~mask) + root) % n);
            rank.send_wire(dst, tag, data.data(), data.size() * sizeof(T));
            break;
        }
        mask <<= 1;
    }
    return data;
}

/// Element-wise allreduce: reduce to member 0, then broadcast.
template <typename T, typename Op>
std::vector<T> allreduce(Rank& rank, const Group& g, std::vector<T> data,
                         Op op) {
    data = reduce(rank, g, 0, std::move(data), op);
    bcast(rank, g, 0, data);
    return data;
}

/// Scalar convenience allreduce.
template <typename T, typename Op>
T allreduce_scalar(Rank& rank, const Group& g, T value, Op op) {
    std::vector<T> v{value};
    v = allreduce(rank, g, std::move(v), op);
    return v[0];
}

/// Barrier: an empty allreduce.
inline void barrier(Rank& rank, const Group& g) {
    allreduce_scalar<int>(rank, g, 0, OpSum{});
}

/// Gather each member's (possibly differently sized) run of `count`
/// elements at the root.  Returns per-member vectors in relative-rank order
/// at the root; empty elsewhere.
template <typename T>
std::vector<std::vector<T>> gather(Rank& rank, const Group& g, int root,
                                   const T* mine, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int n = g.size();
    const int rel = g.index_of(rank.id());
    DYNMPI_REQUIRE(rel >= 0, "gather by non-member");
    std::uint64_t tag = detail::coll_tag(g, rank.next_group_seq(g.hash()));

    std::vector<std::vector<T>> out;
    if (rel == root) {
        out.resize(static_cast<std::size_t>(n));
        out[static_cast<std::size_t>(rel)].assign(mine, mine + count);
        for (int r = 0; r < n; ++r) {
            if (r == root) continue;
            out[static_cast<std::size_t>(r)] = detail::bytes_to_vector<T>(
                rank.recv_payload(g.member(r), tag));
        }
    } else {
        rank.send_wire(g.member(root), tag, mine, count * sizeof(T));
    }
    return out;
}

/// Every member's elements, flat in member order, as allgather delivers
/// them.  The elements stay in the broadcast buffer, shared with the packets
/// that carried it, and are read as `const T*` (the pattern
/// DenseArray::row_ptr uses for rows).
template <typename T>
class Gathered {
public:
    /// `lengths` holds each member's element count; they must add up to
    /// the elements in `bytes`.
    Gathered(sim::Payload bytes, std::vector<std::uint64_t> lengths)
        : bytes_(std::move(bytes)), starts_(std::move(lengths)) {
        static_assert(std::is_trivially_copyable_v<T>);
        // data() reads the bytes as T, so operator new's alignment must do.
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
        // Turn the lengths into start offsets in place.
        std::uint64_t at = 0;
        for (std::uint64_t& s : starts_) at += std::exchange(s, at);
        DYNMPI_CHECK(at * sizeof(T) == bytes_.size(),
                     "allgather lengths do not match its data");
    }

    int members() const { return static_cast<int>(starts_.size()); }
    /// All elements, member 0's first.
    const T* data() const { return reinterpret_cast<const T*>(bytes_.data()); }
    std::size_t size() const { return bytes_.size() / sizeof(T); }

    /// Member `rel`'s elements start at data() + start(rel).
    std::size_t start(int rel) const {
        return starts_[static_cast<std::size_t>(rel)];
    }
    std::size_t length(int rel) const {
        return (rel + 1 < members() ? start(rel + 1) : size()) - start(rel);
    }

private:
    sim::Payload bytes_;
    std::vector<std::uint64_t> starts_;  ///< per member
};

/// Allgather: every member ends with every member's elements, flat in member
/// order.  Member 0 gathers the payloads (through gather) and appends them to
/// one buffer, then broadcasts the per-member lengths and that buffer.  Every
/// member's result reads that one buffer: member 0's own, and elsewhere the
/// broadcast payload it received and forwarded.
template <typename T>
Gathered<T> allgather(Rank& rank, const Group& g, const T* mine,
                      std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int rel = g.index_of(rank.id());
    DYNMPI_REQUIRE(rel >= 0, "allgather by non-member");

    // Every member's payload as bytes at member 0 (moved out of the
    // packets), appended into one buffer reserved once.
    std::vector<std::vector<std::byte>> got =
        gather(rank, g, 0, reinterpret_cast<const std::byte*>(mine),
               count * sizeof(T));
    std::vector<std::uint64_t> lengths;
    std::vector<std::byte> flat;
    if (rel == 0) {
        std::size_t total = 0;
        for (const auto& part : got) {
            DYNMPI_CHECK(part.size() % sizeof(T) == 0,
                         "allgather payload is not whole elements");
            total += part.size();
        }
        lengths.reserve(got.size());
        flat.reserve(total);
        for (const auto& part : got) {
            flat.insert(flat.end(), part.begin(), part.end());
            lengths.push_back(part.size() / sizeof(T));
        }
    }
    bcast(rank, g, 0, lengths);
    return Gathered<T>(bcast_payload(rank, g, 0, std::move(flat)),
                       std::move(lengths));
}

template <typename T>
Gathered<T> allgather(Rank& rank, const Group& g, const std::vector<T>& mine) {
    return allgather(rank, g, mine.data(), mine.size());
}

/// Scalar allgather convenience: returns one value per member, in relative
/// rank order.
template <typename T>
std::vector<T> allgather_scalar(Rank& rank, const Group& g, T value) {
    const Gathered<T> all = allgather(rank, g, std::vector<T>{value});
    for (int r = 0; r < all.members(); ++r)
        DYNMPI_CHECK(all.length(r) == 1, "scalar allgather length mismatch");
    return std::vector<T>(all.data(), all.data() + all.size());
}

}  // namespace dynmpi::msg
