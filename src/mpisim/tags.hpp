// Tag-space management for the message layer.
//
// User code sees plain integer tags.  Internally, tags are namespaced 64-bit
// values so that user traffic, collective traffic, and Dyn-MPI runtime
// traffic can never collide.
#pragma once

#include <cstdint>

#include "sim/network.hpp"

namespace dynmpi::msg {

/// Wildcards accepted by Rank::recv.
inline constexpr int kAnySource = -1;
inline constexpr std::int64_t kAnyTag = -1;

enum class TagSpace : std::uint64_t {
    User = 0,
    Collective = 1,
    Runtime = 2, ///< Dyn-MPI internal traffic (redistribution, control)
};

/// Compose a full 64-bit wire tag: 2 bits of namespace, 62 bits of value.
constexpr std::uint64_t make_tag(TagSpace space, std::uint64_t value) {
    return (static_cast<std::uint64_t>(space) << 62) | (value & ((1ULL << 62) - 1));
}

constexpr TagSpace tag_space(std::uint64_t wire_tag) {
    return static_cast<TagSpace>(wire_tag >> 62);
}

constexpr std::uint64_t tag_value(std::uint64_t wire_tag) {
    return wire_tag & ((1ULL << 62) - 1);
}

/// What a receive accepts: one source or kAnySource, and either one wire
/// tag or, with `any_tag`, every tag in `tag`'s space.  This is the message
/// layer's only match rule; a wildcard never crosses tag spaces.
struct RecvMatch {
    int src = kAnySource;
    std::uint64_t tag = 0;
    bool any_tag = false;

    bool matches(const sim::Packet& p) const {
        return (src == kAnySource || src == p.src) &&
               (any_tag ? tag_space(p.tag) == tag_space(tag) : p.tag == tag);
    }
};

}  // namespace dynmpi::msg
