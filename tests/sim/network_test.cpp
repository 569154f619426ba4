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
    p.payload = std::vector<std::byte>(bytes, std::byte{0xAB});
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
    Packet p = make_packet(2, 3, 0, 77);
    std::vector<std::byte> bytes(16, std::byte{0xAB});
    bytes[5] = std::byte{0x42};
    p.payload = std::move(bytes);
    net->transmit(std::move(p));
    e.run();
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].tag, 77u);
    EXPECT_EQ(delivered[0].src, 2);
    EXPECT_EQ(delivered[0].dst, 3);
    EXPECT_EQ(delivered[0].payload.data()[5], std::byte{0x42});
    EXPECT_EQ(delivered[0].payload.size(), 16u);
}

TEST_F(NetFixture, CopiedPacketsShareOnePayload) {
    auto net = make();
    Packet p = make_packet(0, 1, 64);
    Packet q = p;
    q.dst = 2;
    const std::byte* buffer = p.payload.data();
    net->transmit(std::move(p));
    net->transmit(std::move(q));
    e.run();
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0].payload.data(), buffer);
    EXPECT_EQ(delivered[1].payload.data(), buffer);
    EXPECT_EQ(net->bytes_sent(), 128u); // each packet still counts its bytes
}

TEST(Payload, TakeMovesTheOnlyReferenceAndCopiesASharedOne) {
    Payload only(std::vector<std::byte>(32, std::byte{7}));
    const std::byte* buffer = only.data();
    std::vector<std::byte> moved = std::move(only).take();
    EXPECT_EQ(moved.data(), buffer);
    EXPECT_TRUE(only.empty());

    Payload shared(moved.data(), moved.size());
    const Payload other = shared;
    std::vector<std::byte> copied = std::move(shared).take();
    EXPECT_NE(copied.data(), other.data());
    EXPECT_EQ(copied, moved);
    EXPECT_EQ(other.size(), 32u);

    EXPECT_TRUE(std::move(Payload()).take().empty());
    EXPECT_EQ(Payload(std::vector<std::byte>{}).data(), nullptr);
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
