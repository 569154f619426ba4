#include "sim/network.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dynmpi::sim {

std::vector<std::byte> Payload::take() && {
    std::shared_ptr<std::vector<std::byte>> mine = std::move(bytes_);
    if (!mine) return {};
    if (mine.use_count() == 1) return std::move(*mine);
    return *mine;
}

Network::Network(Engine& engine, NetParams params, int num_nodes)
    : engine_(engine), params_(params) {
    DYNMPI_REQUIRE(num_nodes > 0, "network needs at least one node");
    DYNMPI_REQUIRE(params_.bandwidth_Bps > 0.0, "bandwidth must be positive");
    nic_free_.assign(static_cast<std::size_t>(num_nodes), 0);
    crashed_.assign(static_cast<std::size_t>(num_nodes), 0);
    fail_tokens_.assign(static_cast<std::size_t>(num_nodes), 0);
}

void Network::set_delivery_handler(std::function<void(Packet&&)> handler) {
    deliver_ = std::move(handler);
}

void Network::mark_crashed(int node) {
    DYNMPI_REQUIRE(node >= 0 && node < static_cast<int>(crashed_.size()),
                   "bad node in mark_crashed");
    crashed_[static_cast<std::size_t>(node)] = 1;
}

void Network::mark_alive(int node) {
    DYNMPI_REQUIRE(node >= 0 && node < static_cast<int>(crashed_.size()),
                   "bad node in mark_alive");
    crashed_[static_cast<std::size_t>(node)] = 0;
}

void Network::add_send_failures(int node, int count) {
    DYNMPI_REQUIRE(node >= 0 && node < static_cast<int>(fail_tokens_.size()),
                   "bad node in add_send_failures");
    DYNMPI_REQUIRE(count > 0, "send-failure count must be positive");
    fail_tokens_[static_cast<std::size_t>(node)] += count;
}

void Network::set_extra_latency(double seconds) {
    DYNMPI_REQUIRE(seconds >= 0.0, "extra latency must be non-negative");
    extra_latency_ = seconds;
}

bool Network::transmit(Packet&& p) {
    DYNMPI_REQUIRE(deliver_ != nullptr, "no delivery handler installed");
    DYNMPI_REQUIRE(p.src >= 0 && p.src < static_cast<int>(nic_free_.size()),
                   "bad source node");
    DYNMPI_REQUIRE(p.dst >= 0 && p.dst < static_cast<int>(nic_free_.size()),
                   "bad destination node");
    if (crashed(p.src) || crashed(p.dst)) {
        // A dead peer looks like an unresponsive one: the packet vanishes
        // but the send itself "succeeds" from the caller's viewpoint.
        return true;
    }
    if (!p.control && fail_tokens_[static_cast<std::size_t>(p.src)] > 0) {
        --fail_tokens_[static_cast<std::size_t>(p.src)];
        ++send_failures_;
        return false;
    }
    ++messages_;
    bytes_ += p.charged_bytes();

    SimTime deliver_at;
    if (p.src == p.dst) {
        deliver_at = engine_.now() + from_seconds(params_.self_latency_s);
    } else if (p.control) {
        deliver_at = engine_.now() +
                     from_seconds(params_.latency_s + extra_latency_);
    } else {
        SimTime start = std::max(engine_.now(),
                                 nic_free_[static_cast<std::size_t>(p.src)]);
        SimTime xfer = from_seconds(static_cast<double>(p.charged_bytes()) /
                                    params_.bandwidth_Bps);
        nic_free_[static_cast<std::size_t>(p.src)] = start + xfer;
        deliver_at =
            start + xfer + from_seconds(params_.latency_s + extra_latency_);
    }

    // The event owns the packet: copying it (as std::function may) shares
    // the payload.
    engine_.at(deliver_at, [this, p = std::move(p)]() mutable {
        // The destination may have crashed while the packet was in flight.
        if (!crashed(p.dst)) deliver_(std::move(p));
    });
    return true;
}

}  // namespace dynmpi::sim
