#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

Packet make_packet(int src, int dst, std::size_t bytes, std::uint64_t tag = 0) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.tag = tag;
    p.payload.assign(bytes, std::byte{0xAB});
    return p;
}

struct NetFixture : ::testing::Test {
    Engine e;
    NetParams params;
    std::vector<Packet> delivered;
    std::vector<SimTime> times;

    std::unique_ptr<Network> make(int nodes = 4) {
        auto net = std::make_unique<Network>(e, params, nodes);
        net->set_delivery_handler([this](Packet&& p) {
            delivered.push_back(std::move(p));
            times.push_back(e.now());
        });
        return net;
    }
};

TEST_F(NetFixture, DeliveryTimeIsLatencyPlusSerialization) {
    auto net = make();
    net->transmit(make_packet(0, 1, 125000)); // 125000 B / 12.5 MB/s = 10 ms
    e.run();
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_NEAR(to_seconds(times[0]), params.latency_s + 0.01, 1e-9);
}

TEST_F(NetFixture, PayloadArrivesIntact) {
    auto net = make();
    Packet p = make_packet(2, 3, 16, 77);
    p.payload[5] = std::byte{0x42};
    net->transmit(std::move(p));
    e.run();
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].tag, 77u);
    EXPECT_EQ(delivered[0].src, 2);
    EXPECT_EQ(delivered[0].dst, 3);
    EXPECT_EQ(delivered[0].payload[5], std::byte{0x42});
    EXPECT_EQ(delivered[0].payload.size(), 16u);
}

TEST_F(NetFixture, DestinationCrashedInFlightDropsThePacket) {
    auto net = make();
    EXPECT_TRUE(net->transmit(make_packet(0, 1, 125000))); // lands at ~10 ms
    e.at(from_seconds(0.005), [&] { net->mark_crashed(1); });
    e.run();
    EXPECT_TRUE(delivered.empty());
    EXPECT_EQ(net->messages_sent(), 1u);
}

TEST_F(NetFixture, SenderNicSerializesBackToBackMessages) {
    auto net = make();
    net->transmit(make_packet(0, 1, 125000));
    net->transmit(make_packet(0, 2, 125000));
    e.run();
    ASSERT_EQ(times.size(), 2u);
    // Second message waits for the first to clear the NIC.
    EXPECT_NEAR(to_seconds(times[1]) - to_seconds(times[0]), 0.01, 1e-9);
}

TEST_F(NetFixture, DifferentSendersDoNotContend) {
    auto net = make();
    net->transmit(make_packet(0, 2, 125000));
    net->transmit(make_packet(1, 3, 125000));
    e.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], times[1]); // switched network: parallel links
}

TEST_F(NetFixture, SelfMessagesBypassNic) {
    auto net = make();
    net->transmit(make_packet(1, 1, 1 << 20));
    e.run();
    ASSERT_EQ(times.size(), 1u);
    EXPECT_NEAR(to_seconds(times[0]), params.self_latency_s, 1e-12);
}

TEST_F(NetFixture, StatsCountMessagesAndBytes) {
    auto net = make();
    net->transmit(make_packet(0, 1, 100));
    net->transmit(make_packet(1, 0, 300));
    e.run();
    EXPECT_EQ(net->messages_sent(), 2u);
    EXPECT_EQ(net->bytes_sent(), 400u);
}

TEST_F(NetFixture, RejectsBadNodeIds) {
    auto net = make(2);
    EXPECT_THROW(net->transmit(make_packet(0, 5, 10)), dynmpi::Error);
    EXPECT_THROW(net->transmit(make_packet(-1, 0, 10)), dynmpi::Error);
}

TEST_F(NetFixture, CpuCostScalesWithBytes) {
    NetParams p;
    EXPECT_GT(p.cpu_cost(1 << 20), p.cpu_cost(1));
    EXPECT_NEAR(p.cpu_cost(0), p.cpu_per_msg_s, 1e-15);
}

TEST_F(NetFixture, WireTimeModelMatchesDelivery) {
    auto net = make();
    std::size_t bytes = 50000;
    net->transmit(make_packet(0, 1, bytes));
    e.run();
    EXPECT_NEAR(to_seconds(times[0]), net->wire_time(bytes), 1e-9);
}

}  // namespace
}  // namespace dynmpi::sim
