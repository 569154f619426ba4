#include "dynmpi/report.hpp"

#include <gtest/gtest.h>

namespace dynmpi {
namespace {

RuntimeStats make_stats() {
    RuntimeStats s;
    s.cycles = 30;
    s.redistributions = 2;
    s.physical_drops = 1;
    s.logical_drops = 1;
    s.readds = 1;
    s.redist_wall_s = 0.5;
    s.transfer.rows_moved = 123;
    s.transfer.bytes = 4567;
    s.transfer.messages = 8;
    for (int c = 0; c < 30; ++c) {
        CycleRecord r;
        r.cycle = c;
        r.wall_s = c < 10 ? 0.1 : 0.2;
        r.max_wall_s = r.wall_s;
        r.mode = c >= 10 && c < 15 ? 1 : 0;
        r.redistributed = c == 15;
        s.history.push_back(r);
    }
    return s;
}

TEST(Report, SummaryMentionsAllEvents) {
    std::string s = summarize(make_stats());
    EXPECT_NE(s.find("30 cycles"), std::string::npos);
    EXPECT_NE(s.find("2 redistribution"), std::string::npos);
    EXPECT_NE(s.find("1 physical drop"), std::string::npos);
    EXPECT_NE(s.find("1 logical drop"), std::string::npos);
    EXPECT_NE(s.find("1 re-add"), std::string::npos);
    EXPECT_NE(s.find("123 rows"), std::string::npos);
}

TEST(Report, TimelineMarksRedistributionBucket) {
    std::string t = render_timeline(make_stats(), 5, 20);
    // Bucket starting at cycle 15 contains the redistribution.
    EXPECT_NE(t.find("cyc    15 |"), std::string::npos);
    std::size_t line_start = t.find("cyc    15");
    std::size_t line_end = t.find('\n', line_start);
    EXPECT_NE(t.substr(line_start, line_end - line_start).find(" R"),
              std::string::npos);
}

TEST(Report, TimelineBarsScaleWithCycleTime) {
    std::string t = render_timeline(make_stats(), 10, 40);
    // Second/third buckets (0.2s) should have ~twice the bars of the first.
    auto bars_in = [&](const char* label) {
        std::size_t p = t.find(label);
        std::size_t bar = t.find('|', p);
        int n = 0;
        while (t[bar + 1 + (std::size_t)n] == '#') ++n;
        return n;
    };
    EXPECT_NEAR(bars_in("cyc    10"), 2 * bars_in("cyc     0"), 1);
}

TEST(Report, PeriodSumsSplitCorrectly) {
    auto sums = period_sums(make_stats(), {10, 20});
    ASSERT_EQ(sums.size(), 3u);
    EXPECT_NEAR(sums[0], 1.0, 1e-9); // 10 x 0.1
    EXPECT_NEAR(sums[1], 2.0, 1e-9); // 10 x 0.2
    EXPECT_NEAR(sums[2], 2.0, 1e-9);
}

TEST(Report, SettledCycleTime) {
    EXPECT_NEAR(settled_cycle_time(make_stats(), 10), 0.2, 1e-9);
    EXPECT_NEAR(settled_cycle_time(make_stats(), 30), (1.0 + 4.0) / 30, 1e-9);
}

TEST(Report, BadArgumentsRejected) {
    EXPECT_THROW(settled_cycle_time(make_stats(), 100), Error);
    EXPECT_THROW(settled_cycle_time(make_stats(), 0), Error);
    EXPECT_THROW(period_sums(make_stats(), {20, 10}), Error);
    EXPECT_THROW(render_timeline(make_stats(), 0, 10), Error);
}

TEST(Report, EmptyHistoryHandled) {
    RuntimeStats s;
    EXPECT_EQ(render_timeline(s), "(no cycles)\n");
    EXPECT_NE(summarize(s).find("0 cycles"), std::string::npos);
}

}  // namespace
}  // namespace dynmpi
