// Manual REDISTRIBUTE (the language-annotation approach from the paper's
// related work).
#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

TEST(ManualRedistribute, AppliesExplicitCountsAndMovesData) {
    msg::Machine m(fast_cluster(3));
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.adapt = false; // the programmer drives everything
        Runtime rt(r, 30, o);
        auto& A = rt.register_dense("A", 2, sizeof(double));
        int ph = rt.init_phase(0, 30, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        for (int row : rt.my_iters(ph).to_vector())
            A.at<double>(row, 0) = row * 2.0;

        rt.redistribute_manual({5, 20, 5});
        EXPECT_EQ(rt.distribution().counts(), (std::vector<int>{5, 20, 5}));
        for (int row : rt.my_iters(ph).to_vector())
            EXPECT_DOUBLE_EQ(A.at<double>(row, 0), row * 2.0);
        EXPECT_EQ(rt.stats().redistributions, 1);
        ASSERT_EQ(rt.stats().events.size(), 1u);
        EXPECT_NE(rt.stats().events[0].detail.find("manual"),
                  std::string::npos);
    });
}

TEST(ManualRedistribute, CountsMustMatchActiveSet) {
    msg::Machine m(fast_cluster(2));
    EXPECT_THROW(m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 16, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.redistribute_manual({4, 4, 8}); // 3 counts, 2 nodes
    }),
                 Error);
}

TEST(ManualRedistribute, RejectedInsideCycle) {
    msg::Machine m(fast_cluster(1));
    EXPECT_THROW(m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 8, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 8, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.begin_cycle();
        rt.redistribute_manual({8});
    }),
                 Error);
}

}  // namespace
}  // namespace dynmpi
