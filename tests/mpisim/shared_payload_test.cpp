// Lifetime and fault cases of the shared broadcast buffer.  A bcast member
// forwards the one payload it received to its children, and allgather's
// results read that buffer in place, so every case here checks that each
// surviving member ends with bytes equal to the root's: after a send retry
// resends the shared buffer, after a leaf dies with a packet of it on the
// wire, and after the root overwrites its own input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/cluster_fixture.hpp"
#include "mpisim/collectives.hpp"
#include "sim/fault_plan.hpp"

namespace dynmpi::msg {
namespace {

constexpr int kMembers = 8;
// In the binomial tree from member 0 over 8 members, member 4 forwards to
// 6 and 5, and 5 is a leaf.
constexpr int kForwarder = 4;
constexpr int kLeaf = 5;

/// The root's 112,000-byte broadcast (CG's p vector at n = 14,000).
std::vector<std::byte> root_bytes() {
    std::vector<std::byte> v(112000);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<std::byte>((i * 31 + 7) % 251);
    return v;
}

/// Member `rel`'s 1,750 allgather elements.
std::vector<double> part_of(int rel) {
    std::vector<double> v(1750);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = rel * 1e4 + static_cast<double>(i);
    return v;
}

/// Every member's parts, flat in member order: what allgather must deliver.
std::vector<double> all_parts() {
    std::vector<double> all;
    for (int r = 0; r < kMembers; ++r) {
        const auto part = part_of(r);
        all.insert(all.end(), part.begin(), part.end());
    }
    return all;
}

void expect_whole(const std::optional<Gathered<double>>& got, int rank) {
    ASSERT_TRUE(got.has_value()) << "rank " << rank;
    const auto want = all_parts();
    ASSERT_EQ(got->size(), want.size()) << "rank " << rank;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got->data()))
        << "rank " << rank;
    for (int r = 0; r < kMembers; ++r)
        EXPECT_EQ(got->length(r), 1750u) << "rank " << rank;
}

TEST(SharedPayload, BcastRetryFromAForwarderResendsTheSharedBuffer) {
    Machine m(quiet_cluster(kMembers));
    std::vector<std::vector<std::byte>> got(kMembers);
    m.run([&](Rank& r) {
        const Group g = Group::world(r);
        auto& data = got[static_cast<std::size_t>(r.id())];
        if (r.id() == 0) data = root_bytes();
        // The forwarder's first two attempts to pass the buffer on fail.
        if (r.id() == kForwarder)
            r.machine().cluster().network().add_send_failures(kForwarder, 2);
        bcast(r, g, 0, data);
    });
    EXPECT_EQ(m.cluster().network().send_failures(), 2u);
    for (int r = 0; r < kMembers; ++r)
        EXPECT_EQ(got[static_cast<std::size_t>(r)], root_bytes())
            << "rank " << r;
}

TEST(SharedPayload, AllgatherRetryFromAForwarderResendsTheSharedBuffer) {
    Machine m(quiet_cluster(kMembers));
    // Armed once the forwarder has sent its part and passed the lengths on,
    // while the 112,000-byte buffer is still on the root's wire to it, so
    // the failures land on the forward of that buffer.
    m.cluster().install_faults(
        sim::FaultPlan::parse("lose-sends node=4 t=0.005 count=2\n"));
    std::vector<std::optional<Gathered<double>>> got(kMembers);
    m.run([&](Rank& r) {
        const Group g = Group::world(r);
        got[static_cast<std::size_t>(r.id())] =
            allgather(r, g, part_of(g.index_of(r.id())));
    });
    EXPECT_EQ(m.cluster().network().send_failures(), 2u);
    for (int r = 0; r < kMembers; ++r)
        expect_whole(got[static_cast<std::size_t>(r)], r);
}

TEST(SharedPayload, LeafCrashWithTheBufferOnTheWireSparesTheSurvivors) {
    Machine m(quiet_cluster(kMembers));
    // The forwarder's packet to the leaf is on the wire from about 18 ms to
    // 27 ms of virtual time; the leaf's node dies in between.
    m.cluster().install_faults(
        sim::FaultPlan::parse("crash node=5 t=0.022\n"));
    std::vector<std::vector<std::byte>> got(kMembers);
    m.run([&](Rank& r) {
        const Group g = Group::world(r);
        auto& data = got[static_cast<std::size_t>(r.id())];
        if (r.id() == 0) data = root_bytes();
        // The other leaves would still be waiting at the crash, and a
        // crash revokes pending collective receives: they join after it.
        if (r.id() == 1 || r.id() == 3 || r.id() == 7) {
            r.sleep(0.05);
            r.sync_revocations();
        }
        bcast(r, g, 0, data);
    });
    // Seven packets left their senders and six arrived: the leaf's was lost
    // in flight, dropped with the crashed node.
    EXPECT_EQ(m.cluster().network().messages_sent(), 7u);
    EXPECT_EQ(m.traffic().messages[static_cast<int>(TagSpace::Collective)],
              6u);
    for (int r = 0; r < kMembers; ++r) {
        if (r == kLeaf) continue;
        EXPECT_EQ(got[static_cast<std::size_t>(r)], root_bytes())
            << "rank " << r;
    }
}

TEST(SharedPayload, RootOverwritingItsInputAfterAllgatherSparesTheMembers) {
    Machine m(quiet_cluster(kMembers));
    std::vector<std::optional<Gathered<double>>> got(kMembers);
    m.run([&](Rank& r) {
        const Group g = Group::world(r);
        auto mine = part_of(g.index_of(r.id()));
        got[static_cast<std::size_t>(r.id())] = allgather(r, g, mine);
        // The root returns while its buffer is still on the wire.
        if (r.id() == 0) std::fill(mine.begin(), mine.end(), -1.0);
        barrier(r, g);
        expect_whole(got[static_cast<std::size_t>(r.id())], r.id());
    });
}

TEST(SharedPayload, RootOverwritingItsInputAfterBcastSparesTheMembers) {
    Machine m(quiet_cluster(kMembers));
    std::vector<std::vector<std::byte>> got(kMembers);
    m.run([&](Rank& r) {
        const Group g = Group::world(r);
        auto& data = got[static_cast<std::size_t>(r.id())];
        if (r.id() == 0) data = root_bytes();
        bcast(r, g, 0, data);
        if (r.id() == 0) std::fill(data.begin(), data.end(), std::byte{0});
        barrier(r, g);
        if (r.id() != 0) {
            EXPECT_EQ(data, root_bytes()) << "rank " << r.id();
        }
    });
}

}  // namespace
}  // namespace dynmpi::msg
