// Multi-loop translation: programs with several phases (the paper's SOR has
// two) translate to one DMPI_init_phase per loop, with per-phase DRSDs.
#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"
#include "translate/translator.hpp"

namespace dynmpi::xlate {
namespace {

MpiProgram two_phase_program() {
    MpiProgram p;
    p.name = "red_black";
    p.global_rows = 64;
    p.arrays = {ArrayDecl{"U", 8, sizeof(double), false, 0}};
    for (int sweep = 0; sweep < 2; ++sweep) {
        LoopNest loop;
        loop.lo = 0;
        loop.hi = 64;
        loop.refs = {
            ArrayRef{"U", AccessMode::Write, false, 1, 0},
            ArrayRef{"U", AccessMode::Read, false, 1, -1},
            ArrayRef{"U", AccessMode::Read, false, 1, +1},
        };
        p.loops.push_back(loop);
    }
    return p;
}

TEST(MultiLoopTranslate, OnePhasePerLoop) {
    auto plan = translate(two_phase_program());
    ASSERT_EQ(plan.phases.size(), 2u);
    for (const auto& ph : plan.phases) {
        EXPECT_EQ(ph.comm.pattern, CommPattern::NearestNeighbor);
        EXPECT_EQ(ph.accesses.size(), 3u);
    }
    std::string src = emit_source(plan);
    EXPECT_NE(src.find("phase0"), std::string::npos);
    EXPECT_NE(src.find("phase1"), std::string::npos);
    EXPECT_NE(src.find("DMPI_get_start_iter(phase1)"), std::string::npos);
}

TEST(MultiLoopTranslate, PhaseDrsdsCarryTheirPhaseIds) {
    auto plan = translate(two_phase_program());
    for (std::size_t ph = 0; ph < plan.phases.size(); ++ph)
        for (const auto& d : plan.phases[ph].accesses)
            EXPECT_EQ(d.phase, static_cast<int>(ph));
}

TEST(MultiLoopTranslate, TwoPhaseProgramExecutes) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(3, 0.5, -1.0);
    TranslatedRunResult out;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        auto res = run_translated(r, two_phase_program(), 60, 3e-3, o);
        if (r.id() == 0) out = res;
    });
    EXPECT_EQ(out.stats.cycles, 60);
    EXPECT_GE(out.stats.redistributions, 1);
    ASSERT_EQ(out.final_counts.size(), 4u);
    EXPECT_LT(out.final_counts[3], out.final_counts[0]);
}

TEST(MultiLoopTranslate, MixedPatternsPerPhase) {
    MpiProgram p;
    p.name = "mixed";
    p.global_rows = 32;
    p.arrays = {ArrayDecl{"A", 4, sizeof(double), false, 0},
                ArrayDecl{"v", 1, sizeof(double), false, 0}};
    LoopNest stencil;
    stencil.lo = 0;
    stencil.hi = 32;
    stencil.refs = {ArrayRef{"A", AccessMode::Write, false, 1, 0},
                    ArrayRef{"A", AccessMode::Read, false, 1, -1}};
    LoopNest gatherish;
    gatherish.lo = 0;
    gatherish.hi = 32;
    gatherish.refs = {ArrayRef{"v", AccessMode::Read, true, 0, 0},
                      ArrayRef{"A", AccessMode::Write, false, 1, 0}};
    p.loops = {stencil, gatherish};
    auto plan = translate(p);
    EXPECT_EQ(plan.phases[0].comm.pattern, CommPattern::NearestNeighbor);
    EXPECT_EQ(plan.phases[1].comm.pattern, CommPattern::AllGather);
}

TEST(MultiLoopTranslate, SubSpanNearestNeighborExecutionRejected) {
    MpiProgram p = two_phase_program();
    p.loops[0].lo = 8; // sub-span stencil phase
    msg::Machine m(quiet_cluster(2));
    EXPECT_THROW(m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        run_translated(r, p, 5, 1e-3, o);
    }),
                 Error);
}

}  // namespace
}  // namespace dynmpi::xlate
