// The §4 adaptation policy on its own: table-driven cases for the grace
// decision (who is re-added, who sits out), the §4.4 drop, the two load
// thresholds, quarantine streaks and rejoin readiness.  No simulator: every
// input is a plain value, as the Runtime would hand it over.
#include "dynmpi/adapt_policy.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "support/error.hpp"

namespace dynmpi {
namespace {

using Kind = AdaptAction::Kind;

constexpr int kRows = 48;
constexpr int kWorld = 4;

/// The inputs a CycleView points at: four equal nodes, uniform row costs,
/// one nearest-neighbor phase.
struct Fixture {
    std::vector<int> active;
    Distribution dist;
    std::vector<double> row_costs =
        std::vector<double>(static_cast<std::size_t>(kRows), 1e-3);
    MachineModel model{.speeds = std::vector<double>(kWorld, 1.0),
                       .memories = std::vector<double>(kWorld, 0.0),
                       .comm_costs = {},
                       .phases = {PhaseComm{CommPattern::NearestNeighbor,
                                            32}}};

    explicit Fixture(std::vector<int> act)
        : active(std::move(act)),
          dist(Distribution::even_block(0, kRows,
                                        static_cast<int>(active.size()))) {}

    CycleView view(double max_delta = 0.0, double max_wall = 0.1) const {
        return CycleView{.redistributions = 0,
                         .max_delta = max_delta, .max_wall = max_wall,
                         .active = active, .dist = dist,
                         .row_costs = row_costs, .model = model};
    }
};

LoadSnapshot snapshot(std::vector<double> loads,
                      std::vector<char> quarantined = {0, 0, 0, 0},
                      std::vector<char> joinable = {1, 1, 1, 1}) {
    return LoadSnapshot{std::move(loads), std::move(quarantined),
                        std::move(joinable)};
}

/// Drives `p` from Monitor through a load change to the end of its grace
/// period, which decides on `snap`.
AdaptAction grace_end(AdaptPolicy& p, const Fixture& f,
                      const LoadSnapshot& snap, int grace_cycles = 5) {
    CycleView v = f.view(/*max_delta=*/2.0);
    EXPECT_EQ(p.step(v).kind, Kind::EnterGrace);
    for (int c = 1; c < grace_cycles; ++c) {
        EXPECT_FALSE(p.decision_due());
        EXPECT_EQ(p.step(v).kind, Kind::None);
    }
    EXPECT_TRUE(p.decision_due());
    v.snapshot = &snap;
    return p.step(v);
}

/// Runs a whole post-grace window of `max_wall`-second cycles from `p`'s
/// start_post_grace, deciding on `snap`.
AdaptAction post_grace_end(AdaptPolicy& p, const Fixture& f,
                           const LoadSnapshot& snap, double max_wall = 0.1,
                           int cycles = 10) {
    p.start_post_grace();
    CycleView v = f.view(/*max_delta=*/0.0, max_wall);
    for (int c = 1; c < cycles; ++c) EXPECT_EQ(p.step(v).kind, Kind::None);
    EXPECT_TRUE(p.decision_due());
    v.snapshot = &snap;
    return p.step(v);
}

int sum(const std::vector<int>& v) {
    return std::accumulate(v.begin(), v.end(), 0);
}

TEST(AdaptPolicy, ReaddAndQuarantineInOneDecision) {
    // Node 3 was removed and its load cleared; node 1 was just quarantined.
    // One decision re-adds 3 and excludes 1: the active set keeps its size,
    // and the re-add is still counted.
    AdaptPolicy p(RuntimeOptions{}, kWorld);
    Fixture f({0, 1, 2});
    const AdaptAction a =
        grace_end(p, f, snapshot({0, 0, 0, 0}, {0, 1, 0, 0}));
    EXPECT_EQ(a.kind, Kind::Redistribute);
    EXPECT_EQ(a.members, (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(a.readds, 1);
    EXPECT_EQ(sum(a.counts), kRows);
    EXPECT_EQ(p.mode(), AdaptPolicy::Mode::PostGrace);
    EXPECT_EQ(p.quarantined(), (std::vector<char>{0, 1, 0, 0}));
}

struct CandidateCase {
    const char* name;
    std::vector<int> active;
    std::vector<double> loads;
    std::vector<char> quarantined, joinable;
    Kind kind;
    std::vector<int> members;
    int readds;
};

TEST(AdaptPolicy, GraceEndCandidates) {
    const CandidateCase cases[] = {
        {"quiet cluster: same layout, skipped", {0, 1, 2, 3},
         {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 1, 1, 1}, Kind::Skip,
         {0, 1, 2, 3}, 0},
        {"a loaded active node stays a candidate", {0, 1, 2, 3},
         {0, 3, 0, 0}, {0, 0, 0, 0}, {1, 1, 1, 1}, Kind::Redistribute,
         {0, 1, 2, 3}, 0},
        {"a removed node still loaded stays out", {0, 1, 2},
         {0, 0, 0, 1.0}, {0, 0, 0, 0}, {1, 1, 1, 1}, Kind::Skip,
         {0, 1, 2}, 0},
        {"a removed node not yet joinable stays out", {0, 1, 2},
         {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 1, 1, 0}, Kind::Skip,
         {0, 1, 2}, 0},
        {"a removed node at 0.4 is unloaded for re-add", {0, 1, 2},
         {0, 0, 0, 0.4}, {0, 0, 0, 0}, {1, 1, 1, 1}, Kind::Redistribute,
         {0, 1, 2, 3}, 1},
        {"every candidate quarantined: the survivors stay", {0, 1},
         {0, 0, 2, 2}, {1, 1, 0, 0}, {1, 1, 1, 1}, Kind::Skip, {0, 1}, 0},
    };
    for (const CandidateCase& c : cases) {
        SCOPED_TRACE(c.name);
        AdaptPolicy p(RuntimeOptions{}, kWorld);
        Fixture f(c.active);
        const LoadSnapshot snap = snapshot(c.loads, c.quarantined, c.joinable);
        const AdaptAction a = grace_end(p, f, snap);
        EXPECT_EQ(a.kind, c.kind);
        EXPECT_EQ(a.members, c.members);
        EXPECT_EQ(a.readds, c.readds);
        EXPECT_EQ(sum(a.counts), kRows);
        // The decision's loads become the baseline either way.
        EXPECT_EQ(p.baseline_loads(), c.loads);
        EXPECT_EQ(p.mode(), c.kind == Kind::Skip
                                ? AdaptPolicy::Mode::Monitor
                                : AdaptPolicy::Mode::PostGrace);
    }
}

TEST(AdaptPolicy, LoadedNodeGetsASmallerBlock) {
    AdaptPolicy p(RuntimeOptions{}, kWorld);
    Fixture f({0, 1, 2, 3});
    const AdaptAction a = grace_end(p, f, snapshot({0, 3, 0, 0}));
    ASSERT_EQ(a.counts.size(), 4u);
    EXPECT_LT(a.counts[1], a.counts[0]);
    EXPECT_EQ(a.counts[0], a.counts[2]);
}

TEST(AdaptPolicy, MonitorStartsGraceOnlyOnAMaterialDelta) {
    RuntimeOptions o;
    o.max_redistributions = 1;
    AdaptPolicy p(o, kWorld);
    Fixture f({0, 1, 2, 3});
    CycleView v = f.view(/*max_delta=*/0.5); // not above load_change_eps
    EXPECT_EQ(p.step(v).kind, Kind::None);
    v.max_delta = 0.6;
    v.redistributions = 1; // the cap is reached
    EXPECT_EQ(p.step(v).kind, Kind::None);
    v.redistributions = 0;
    EXPECT_EQ(p.step(v).kind, Kind::EnterGrace);
    EXPECT_EQ(p.mode(), AdaptPolicy::Mode::Grace);
}

TEST(AdaptPolicy, TwoLoadThresholds) {
    // Node 3 at load 0.4 is unloaded for the candidate set and the
    // any-loaded trigger (load_change_eps = 0.5) but loaded for the §4.4
    // predictor (kLoadedThreshold = 0.25).
    ASSERT_LT(kLoadedThreshold, 0.4);
    RuntimeOptions o;
    o.force_drop_loaded = true;
    Fixture f({0, 1, 2, 3});

    // Alone, it raises no removal question at all.
    AdaptPolicy quiet(o, kWorld);
    AdaptAction a = post_grace_end(quiet, f, snapshot({0, 0, 0, 0.4}));
    EXPECT_EQ(a.kind, Kind::EndPostGrace);
    EXPECT_FALSE(a.removal.has_value());

    // Beside a truly loaded node 1, it is dropped with it.
    AdaptPolicy p(o, kWorld);
    a = post_grace_end(p, f, snapshot({0, 2.0, 0, 0.4}));
    EXPECT_EQ(a.kind, Kind::DropPhysical);
    ASSERT_TRUE(a.removal.has_value());
    EXPECT_EQ(a.removal->unloaded_members, (std::vector<int>{0, 2}));
    EXPECT_EQ(a.members, (std::vector<int>{0, 2}));
    EXPECT_EQ(sum(a.counts), kRows);
    EXPECT_EQ(p.mode(), AdaptPolicy::Mode::Monitor);
}

TEST(AdaptPolicy, PostGraceDrops) {
    // Node 1 is loaded.  Without it the three others predict 16 rows x 1 ms
    // plus comm per cycle: a 100 ms measured cycle is worth dropping it, a
    // 1 ms one is not.
    Fixture f({0, 1, 2, 3});
    const LoadSnapshot snap = snapshot({0, 3.0, 0, 0});
    struct Case {
        const char* name;
        bool enable_removal, force;
        DropMode mode;
        double max_wall;
        Kind kind;
    };
    const Case cases[] = {
        {"removal off", false, true, DropMode::Physical, 0.1,
         Kind::EndPostGrace},
        {"predictor drops", true, false, DropMode::Physical, 0.1,
         Kind::DropPhysical},
        {"predictor keeps", true, false, DropMode::Physical, 0.001,
         Kind::EndPostGrace},
        {"forced despite the predictor", true, true, DropMode::Physical,
         0.001, Kind::DropPhysical},
        {"forced logical", true, true, DropMode::Logical, 0.1,
         Kind::DropLogical},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        RuntimeOptions o;
        o.enable_removal = c.enable_removal;
        o.force_drop_loaded = c.force;
        o.drop_mode = c.mode;
        AdaptPolicy p(o, kWorld);
        const AdaptAction a = post_grace_end(p, f, snap, c.max_wall);
        EXPECT_EQ(a.kind, c.kind);
        EXPECT_DOUBLE_EQ(a.measured_s, c.max_wall);
        EXPECT_EQ(a.removal.has_value(), c.enable_removal);
        if (a.removal) {
            EXPECT_EQ(a.removal->unloaded_members, (std::vector<int>{0, 2, 3}));
            EXPECT_EQ(a.removal->drop, c.kind != Kind::EndPostGrace);
        }
        if (c.kind == Kind::DropPhysical) {
            EXPECT_EQ(a.members, (std::vector<int>{0, 2, 3}));
        }
        if (c.kind == Kind::DropLogical) {
            EXPECT_EQ(a.members, f.active);
            EXPECT_EQ(a.counts[1], AdaptPolicy::kLogicalMinRows);
            EXPECT_EQ(sum(a.counts), kRows);
        }
    }
}

/// Four live nodes, all active, node 2's report stale when `stale2`.
std::vector<NodeReport> reports(bool stale2) {
    std::vector<NodeReport> r(kWorld);
    for (NodeReport& n : r) n.active = true;
    r[2].stale = stale2;
    return r;
}

TEST(AdaptPolicy, QuarantineAfterBadStreakReadmitAfterCleanOne) {
    RuntimeOptions o;
    AdaptPolicy p(o, kWorld);
    std::vector<QuarantineFlip> flips;
    // A bad streak one short of the threshold: no flip due, no forced delta.
    int cycle = 0;
    for (; cycle < AdaptPolicy::kQuarantineBadReports - 1; ++cycle)
        EXPECT_EQ(p.scan_reports(reports(true), cycle), 0.0);
    // The next one is due: it forces an adaptation round, and the snapshot
    // applies it with the fallback load.
    EXPECT_GT(p.scan_reports(reports(true), cycle), o.load_change_eps);
    std::vector<NodeReport> r = reports(true);
    r[2].load = 7.0; // a stale report's value is not trusted
    LoadSnapshot s = p.snapshot(r, cycle, flips);
    ASSERT_EQ(flips.size(), 1u);
    EXPECT_EQ(flips[0].node, 2);
    EXPECT_TRUE(flips[0].quarantined);
    EXPECT_EQ(flips[0].streak, AdaptPolicy::kQuarantineBadReports);
    EXPECT_EQ(s.quarantined, (std::vector<char>{0, 0, 1, 0}));
    EXPECT_EQ(s.loads[2], 0.0); // the baseline
    // Clean reports readmit it after kReadmitCleanCycles.
    flips.clear();
    for (int k = 1; k < AdaptPolicy::kReadmitCleanCycles; ++k)
        EXPECT_EQ(p.scan_reports(reports(false), ++cycle), 0.0);
    EXPECT_GT(p.scan_reports(reports(false), ++cycle), o.load_change_eps);
    s = p.snapshot(reports(false), cycle, flips);
    ASSERT_EQ(flips.size(), 1u);
    EXPECT_FALSE(flips[0].quarantined);
    EXPECT_EQ(flips[0].streak, AdaptPolicy::kReadmitCleanCycles);
    EXPECT_EQ(s.quarantined, (std::vector<char>{0, 0, 0, 0}));
}

TEST(AdaptPolicy, FlipOfANodeThatCrashedSinceTheScanIsNotApplied) {
    RuntimeOptions o;
    AdaptPolicy p(o, kWorld);
    const int due = AdaptPolicy::kQuarantineBadReports - 1;
    for (int cycle = 0; cycle < due; ++cycle)
        p.scan_reports(reports(true), cycle);
    EXPECT_GT(p.scan_reports(reports(true), due), o.load_change_eps);
    std::vector<NodeReport> r = reports(true);
    r[2].crashed = true;
    std::vector<QuarantineFlip> flips;
    const LoadSnapshot s = p.snapshot(r, due, flips);
    EXPECT_TRUE(flips.empty());
    EXPECT_EQ(s.quarantined[2], 0);
    EXPECT_EQ(s.joinable[2], 0);
}

TEST(AdaptPolicy, RejoinerIsReadyTheCycleAfterItsBootstrap) {
    AdaptPolicy p(RuntimeOptions{}, kWorld);
    std::vector<NodeReport> r = reports(false);
    r[3].active = false;
    r[3].generation = 1; // revived once
    std::vector<QuarantineFlip> flips;
    // Not bootstrapped yet: not joinable, no forced round.
    EXPECT_EQ(p.scan_reports(r, 9), 0.0);
    EXPECT_EQ(p.snapshot(r, 9, flips).joinable[3], 0);
    EXPECT_TRUE(p.claim_bootstrap(3, 1, 10));
    EXPECT_FALSE(p.claim_bootstrap(3, 1, 10)); // owed once per incarnation
    EXPECT_FALSE(p.claim_bootstrap(0, 0, 10)); // never restarted
    // Bootstrapped this cycle: the reborn skips it.
    EXPECT_EQ(p.scan_reports(r, 10), 0.0);
    EXPECT_EQ(p.snapshot(r, 10, flips).joinable[3], 0);
    // Next cycle it is ready, and its wait forces an adaptation round.
    EXPECT_GT(p.scan_reports(r, 11), RuntimeOptions{}.load_change_eps);
    EXPECT_EQ(p.snapshot(r, 11, flips).joinable[3], 1);
    // A removed node that never restarted is joinable, but only its load
    // delta counts.
    r[3].generation = 0;
    r[3].load = 0.2;
    AdaptPolicy fresh(RuntimeOptions{}, kWorld);
    EXPECT_DOUBLE_EQ(fresh.scan_reports(r, 11), 0.2);
    EXPECT_EQ(fresh.snapshot(r, 11, flips).joinable[3], 1);
    // A later incarnation is owed a new bootstrap.
    EXPECT_TRUE(p.claim_bootstrap(3, 2, 20));
    EXPECT_TRUE(p.saw_generation(3, 2));
    EXPECT_FALSE(p.saw_generation(3, 2));
}

TEST(AdaptPolicy, RetriedRoundRestoresTheMonitorState) {
    AdaptPolicy p(RuntimeOptions{}, kWorld);
    Fixture f({0, 1, 2, 3});
    const AdaptPolicy::Checkpoint before = p.checkpoint();
    EXPECT_TRUE(before.baseline.empty()); // no grace end is due
    EXPECT_EQ(p.step(f.view(2.0)).kind, Kind::EnterGrace);
    p.step(f.view());
    EXPECT_EQ(p.checkpoint().mon.grace_count, 1);
    p.restore(before);
    EXPECT_EQ(p.mode(), AdaptPolicy::Mode::Monitor);
    EXPECT_EQ(p.step(f.view(2.0)).kind, Kind::EnterGrace);
}

TEST(AdaptPolicy, RetriedGraceEndRestoresTheBaseline) {
    // An attempt that fails after the grace-end step (say, in the
    // redistribution) must not leave the new baseline behind: the replay
    // decides on the loads the aborted attempt started from.
    AdaptPolicy p(RuntimeOptions{}, kWorld);
    Fixture f({0, 1, 2, 3});
    CycleView v = f.view(2.0);
    p.step(v); // enter grace
    for (int c = 1; c < RuntimeOptions{}.grace_cycles; ++c) p.step(v);
    ASSERT_TRUE(p.decision_due());
    const AdaptPolicy::Checkpoint before = p.checkpoint();
    EXPECT_EQ(before.baseline, (std::vector<double>{0, 0, 0, 0}));
    const LoadSnapshot snap = snapshot({0, 3, 0, 0});
    v.snapshot = &snap;
    EXPECT_EQ(p.step(v).kind, Kind::Redistribute);
    EXPECT_EQ(p.baseline_loads(), snap.loads);
    p.restore(before);
    EXPECT_EQ(p.baseline_loads(), (std::vector<double>{0, 0, 0, 0}));
    EXPECT_EQ(p.mode(), AdaptPolicy::Mode::Grace);
    EXPECT_TRUE(p.decision_due());
}

TEST(AdaptPolicy, DecisionWithoutSnapshotIsAnError) {
    AdaptPolicy p(RuntimeOptions{}, kWorld);
    Fixture f({0, 1, 2, 3});
    p.start_post_grace();
    for (int c = 1; c < 10; ++c) p.step(f.view());
    EXPECT_THROW(p.step(f.view()), Error);
}

TEST(AdaptPolicy, RejectsNonPositiveWindows) {
    RuntimeOptions o;
    o.grace_cycles = 0;
    EXPECT_THROW(AdaptPolicy(o, kWorld), Error);
}

}  // namespace
}  // namespace dynmpi
