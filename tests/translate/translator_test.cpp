// Tests for the §2.3 MPI → Dyn-MPI translator: DRSD derivation, pattern
// inference, local→global view conversion, Figure-2 style code emission, and
// end-to-end execution of a translated program.
#include "translate/translator.hpp"

#include <gtest/gtest.h>

#include "common/cluster_fixture.hpp"
#include "mpisim/machine.hpp"

namespace dynmpi::xlate {
namespace {

/// The paper's Figure 1 program: one loop writing A[i] from B with a
/// nearest-neighbor dependence.
MpiProgram figure1_program() {
    MpiProgram p;
    p.name = "figure1";
    p.global_rows = 64;
    p.arrays = {
        ArrayDecl{"A", 16, sizeof(double), false, 0},
        ArrayDecl{"B", 16, sizeof(double), false, 0},
    };
    LoopNest loop;
    loop.lo = 0;
    loop.hi = 64;
    loop.refs = {
        ArrayRef{"A", AccessMode::Write, false, 1, 0},
        ArrayRef{"B", AccessMode::Read, false, 1, 0},
        ArrayRef{"B", AccessMode::Read, false, 1, -1},
        ArrayRef{"B", AccessMode::Read, false, 1, +1},
    };
    p.loops.push_back(loop);
    return p;
}

/// A CG-shaped program: sparse matrix rows times a gathered vector.
MpiProgram cg_program() {
    MpiProgram p;
    p.name = "cg";
    p.global_rows = 64;
    p.arrays = {
        ArrayDecl{"M", 0, 8, true, 64},
        ArrayDecl{"p", 1, sizeof(double), false, 0},
        ArrayDecl{"q", 1, sizeof(double), false, 0},
    };
    LoopNest loop;
    loop.lo = 0;
    loop.hi = 64;
    loop.refs = {
        ArrayRef{"M", AccessMode::Read, false, 1, 0},
        ArrayRef{"p", AccessMode::Read, true, 0, 0}, // full-range read
        ArrayRef{"q", AccessMode::Write, false, 1, 0},
    };
    p.loops.push_back(loop);
    return p;
}

TEST(Translator, DerivesDedupedDrsds) {
    auto plan = translate(figure1_program());
    ASSERT_EQ(plan.phases.size(), 1u);
    const auto& acc = plan.phases[0].accesses;
    ASSERT_EQ(acc.size(), 4u); // A write + 3 distinct B reads
    // Dedup check: translating a program with a repeated reference.
    MpiProgram p = figure1_program();
    p.loops[0].refs.push_back(ArrayRef{"B", AccessMode::Read, false, 1, 0});
    auto plan2 = translate(p);
    EXPECT_EQ(plan2.phases[0].accesses.size(), 4u);
}

TEST(Translator, InfersNearestNeighborFromOffsets) {
    auto plan = translate(figure1_program());
    EXPECT_EQ(plan.phases[0].comm.pattern, CommPattern::NearestNeighbor);
    EXPECT_EQ(plan.phases[0].comm.bytes_per_message, 16 * sizeof(double));
}

TEST(Translator, InfersAllGatherFromFullRangeRead) {
    auto plan = translate(cg_program());
    EXPECT_EQ(plan.phases[0].comm.pattern, CommPattern::AllGather);
    EXPECT_EQ(plan.phases[0].comm.bytes_per_message, 64 * sizeof(double));
}

TEST(Translator, InfersNoneWithoutCrossIterationRefs) {
    MpiProgram p = figure1_program();
    p.loops[0].refs = {ArrayRef{"A", AccessMode::Write, false, 1, 0}};
    auto plan = translate(p);
    EXPECT_EQ(plan.phases[0].comm.pattern, CommPattern::None);
    EXPECT_NE(emit_source(plan).find("DMPI_NONE"), std::string::npos);
}

TEST(Translator, GlobalizeConvertsLocalView) {
    // A[local_i - 1] in a block-distributed program is the global row i-1.
    ArrayRef r = globalize("B", AccessMode::Read, -1);
    EXPECT_EQ(r.array, "B");
    EXPECT_EQ(r.a, 1);
    EXPECT_EQ(r.b, -1);
    EXPECT_EQ(r.mode, AccessMode::Read);
}

TEST(Translator, RejectsUnknownArray) {
    MpiProgram p = figure1_program();
    p.loops[0].refs.push_back(ArrayRef{"ghost", AccessMode::Read, false, 1, 0});
    EXPECT_THROW(translate(p), Error);
}

TEST(Translator, RejectsBadLoopBounds) {
    MpiProgram p = figure1_program();
    p.loops[0].hi = 1000;
    EXPECT_THROW(translate(p), Error);
}

TEST(Translator, EmitsFigure2StyleSource) {
    std::string src = emit_source(translate(figure1_program()));
    // The paper's call sequence, in order.
    auto pos = [&](const char* needle) { return src.find(needle); };
    EXPECT_NE(pos("DMPI_init(rank, 64)"), std::string::npos);
    EXPECT_NE(pos("DMPI_register_dense_array(\"A\", 16, 8)"),
              std::string::npos);
    EXPECT_NE(pos("DMPI_init_phase(0, 64, DMPI_NEAREST_NEIGHBOR"),
              std::string::npos);
    EXPECT_NE(pos("DMPI_add_array_access(\"B\", DMPI_READ, phase0, 1, -1)"),
              std::string::npos);
    EXPECT_NE(pos("DMPI_get_start_iter"), std::string::npos);
    EXPECT_NE(pos("DMPI_participating()"), std::string::npos);
    EXPECT_NE(pos("DMPI_get_rel_rank"), std::string::npos);
    // Ordering: init before registration before phase before commit.
    EXPECT_LT(pos("DMPI_init(rank"), pos("DMPI_register_dense_array"));
    EXPECT_LT(pos("DMPI_register_dense_array"), pos("DMPI_init_phase"));
    EXPECT_LT(pos("DMPI_init_phase"), pos("DMPI_commit()"));
}

TEST(Translator, EmitsSparseRegistration) {
    std::string src = emit_source(translate(cg_program()));
    EXPECT_NE(src.find("DMPI_register_sparse_array(\"M\", 64)"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Executable translation
// ---------------------------------------------------------------------------

TEST(Translator, TranslatedProgramRunsAndAdapts) {
    msg::Machine m(fast_cluster(4));
    m.cluster().add_load_interval(1, 0.5, -1.0, 2);
    TranslatedRunResult out;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.enable_removal = false;
        auto res = run_translated(r, figure1_program(), 80, 5e-3, o);
        if (r.id() == 0) out = res;
    });
    EXPECT_GE(out.stats.redistributions, 1);
    ASSERT_EQ(out.final_counts.size(), 4u);
    EXPECT_LT(out.final_counts[1], out.final_counts[0]);
}

TEST(Translator, TranslatedCgShapeRuns) {
    msg::Machine m(fast_cluster(3));
    TranslatedRunResult out;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        auto res = run_translated(r, cg_program(), 20, 1e-3, o);
        if (r.id() == 0) out = res;
    });
    EXPECT_EQ(out.stats.cycles, 20);
    EXPECT_EQ(out.stats.redistributions, 0); // dedicated: no change
}

TEST(Translator, ConfiguredRuntimeMatchesManualSetup) {
    msg::Machine m(fast_cluster(2));
    m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 64, o);
        auto plan = translate(figure1_program());
        auto phases = configure_runtime(rt, plan);
        ASSERT_EQ(phases.size(), 1u);
        // Ghost rows present exactly as the DRSDs demand.
        RowSet need = rt.dense("B").held();
        RowSet own = rt.my_iters(phases[0]);
        EXPECT_TRUE(need.count() >= own.count());
        if (r.id() == 0) {
            EXPECT_TRUE(need.contains(32)); // ghost of row 31's +1 access
            EXPECT_FALSE(need.contains(40));
        }
    });
}

}  // namespace
}  // namespace dynmpi::xlate
