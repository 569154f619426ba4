// Cyclic initial distributions through the runtime (paper §2.1 supports
// DMPI_BLOCK and cyclic layouts; adaptation re-lays data out as variable
// blocks).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/cluster_fixture.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "support/error.hpp"

namespace dynmpi {
namespace {

RuntimeOptions cyclic_opts(int block = 1) {
    RuntimeOptions o;
    o.calibrate = false;
    o.initial_dist = Distribution::Kind::Cyclic;
    o.cyclic_block_size = block;
    return o;
}

TEST(CyclicRuntime, InitialOwnershipIsRoundRobin) {
    msg::Machine m(fast_cluster(3));
    m.run([](msg::Rank& r) {
        Runtime rt(r, 12, cyclic_opts());
        rt.register_dense("A", 2, sizeof(double));
        int ph = rt.init_phase(0, 12, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        auto mine = rt.my_iters(ph).to_vector();
        ASSERT_EQ(mine.size(), 4u);
        for (int i : mine) EXPECT_EQ(i % 3, r.id());
    });
}

TEST(CyclicRuntime, BlockCyclicRespectsBlockSize) {
    msg::Machine m(fast_cluster(2));
    m.run([](msg::Rank& r) {
        Runtime rt(r, 16, cyclic_opts(4));
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        auto mine = rt.my_iters(ph);
        EXPECT_EQ(mine.intervals().size(), 2u); // two blocks of 4
        EXPECT_EQ(mine.count(), 8);
    });
}

// start_iter/end_iter bound one run.  Rank 0's cyclic set {0, 3, 6, 9}
// has four, and its hull [0, 9] would make a paper-style
// `for (i = start; i <= end; ++i)` loop walk rows 1, 2, 4, ... that other
// ranks own, so both calls refuse.  Layouts with one run per rank keep
// working: a block layout, and a block-cyclic one whose block size deals
// each rank a single block.
TEST(CyclicRuntime, StartEndIterRequireOneRun) {
    msg::Machine m(fast_cluster(3));
    m.run([](msg::Rank& r) {
        for (int block : {1, 4}) {
            Runtime rt(r, 12, cyclic_opts(block));
            rt.register_dense("A", 1, sizeof(double));
            int ph = rt.init_phase(0, 12, PhaseComm{CommPattern::None, 0});
            rt.add_array_access("A", AccessMode::Write, ph);
            rt.commit_setup();
            if (block == 1) {
                EXPECT_EQ(rt.my_iters(ph).intervals().size(), 4u);
                EXPECT_THROW(rt.start_iter(ph), Error);
                EXPECT_THROW(rt.end_iter(ph), Error);
            } else {
                EXPECT_EQ(rt.start_iter(ph), 4 * r.id());
                EXPECT_EQ(rt.end_iter(ph), 4 * r.id() + 3);
            }
        }
        RuntimeOptions o = cyclic_opts();
        o.initial_dist = Distribution::Kind::Block;
        Runtime rt(r, 12, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 12, PhaseComm{CommPattern::None, 0});
        int inner = rt.init_phase(2, 10, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.add_array_access("A", AccessMode::Write, inner);
        rt.commit_setup();
        EXPECT_EQ(rt.start_iter(ph), 4 * r.id());
        EXPECT_EQ(rt.end_iter(ph), 4 * r.id() + 3);
        EXPECT_EQ(rt.start_iter(inner), std::max(2, 4 * r.id()));
        EXPECT_EQ(rt.end_iter(inner), std::min(9, 4 * r.id() + 3));
    });
}

TEST(CyclicRuntime, NonContiguousRowsAllocated) {
    msg::Machine m(fast_cluster(4));
    m.run([](msg::Rank& r) {
        Runtime rt(r, 32, cyclic_opts());
        auto& A = rt.register_dense("A", 2, sizeof(double));
        int ph = rt.init_phase(0, 32, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int i : rt.my_iters(ph).to_vector())
            A.at<double>(i, 0) = i; // must be allocated
        // Exactly my (non-contiguous) rows are held — nothing else.
        EXPECT_EQ(A.held(), rt.my_iters(ph));
        EXPECT_FALSE(A.has_row((r.id() + 1) % 4));
    });
}

TEST(CyclicRuntime, AdaptationMovesCyclicToVariableBlock) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.5, -1.0, 2);
    m.run([](msg::Rank& r) {
        RuntimeOptions o = cyclic_opts();
        o.enable_removal = false;
        Runtime rt(r, 64, o);
        auto& A = rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(0, 64, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();

        // Author data under the cyclic layout.
        for (int i : rt.my_iters(ph).to_vector())
            for (int j = 0; j < 4; ++j) A.at<double>(i, j) = i * 10.0 + j;

        for (int t = 0; t < 80; ++t) {
            rt.begin_cycle();
            if (rt.participating()) {
                std::vector<double> costs(
                    static_cast<std::size_t>(rt.my_iters(ph).count()), 5e-3);
                rt.run_phase(ph, costs);
            }
            rt.end_cycle();
        }
        // Adapted to a block distribution with the loaded node shorted.
        EXPECT_GE(rt.stats().redistributions, 1);
        EXPECT_EQ(rt.distribution().kind(), Distribution::Kind::Block);
        auto counts = rt.distribution().counts();
        EXPECT_LT(counts[1], counts[0]);
        // Data survived the cyclic→block move.
        for (int i : rt.my_iters(ph).to_vector())
            for (int j = 0; j < 4; ++j)
                EXPECT_DOUBLE_EQ(A.at<double>(i, j), i * 10.0 + j);
    });
}

}  // namespace
}  // namespace dynmpi
