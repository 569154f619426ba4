// The trace-event sink: disabled-by-default, fixed JSONL schema, bounded
// ring, chrome://tracing export.  docs/OBSERVABILITY.md documents the
// formats these tests pin down.
#include <gtest/gtest.h>

#include <sstream>

#include "support/trace.hpp"

namespace dynmpi::support {
namespace {

TEST(Trace, DisabledSinkRecordsNothing) {
    TraceSink s;
    EXPECT_FALSE(s.enabled());
    s.instant(1.0, 0, InstantId::RuntimeGraceEnter);
    s.span(1.0, 2.0, 1, SpanId::RedistPack);
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.jsonl(), "");
}

TEST(Trace, EnableClearsAndRecords) {
    TraceSink s;
    s.enable();
    s.instant(0.5, 2, InstantId::RuntimeLoadChange);
    EXPECT_EQ(s.size(), 1u);
    s.enable(); // re-enable wipes the buffer
    EXPECT_EQ(s.size(), 0u);
}

TEST(Trace, JsonlFixedKeyOrderAndFormat) {
    TraceSink s;
    s.enable();
    s.instant(1.25, 3, InstantId::RuntimeGraceEnter,
              {targ("cycle", 7), targ("grace_cycles", 5)});
    std::string line = s.jsonl();
    EXPECT_EQ(line,
              "{\"t\":1.250000000,\"rank\":3,\"ev\":\"runtime.grace_enter\","
              "\"args\":{\"cycle\":7,\"grace_cycles\":5}}\n");
}

TEST(Trace, SpanCarriesDuration) {
    TraceSink s;
    s.enable();
    s.span(1.0, 1.5, 0, SpanId::RedistPack,
           {targ("bytes", std::uint64_t{4096})});
    std::string line = s.jsonl();
    EXPECT_NE(line.find("\"dur\":0.500000000"), std::string::npos);
    EXPECT_NE(line.find("\"bytes\":4096"), std::string::npos);
}

TEST(Trace, StringArgsAreQuotedAndEscaped) {
    TraceSink s;
    s.enable();
    s.instant(0.0, 0, InstantId::RuntimeSkipped,
              {targ("detail", std::string("a \"b\"\nc"))});
    std::string line = s.jsonl();
    EXPECT_NE(line.find("\"detail\":\"a \\\"b\\\"\\nc\""), std::string::npos);
}

TEST(Trace, BoolAndDoubleArgs) {
    TraceSink s;
    s.enable();
    s.instant(0.0, 0, InstantId::RuntimeRemovalEval,
              {targ("drop", true), targ("predicted_unloaded_s", 0.125)});
    std::string line = s.jsonl();
    EXPECT_NE(line.find("\"drop\":true"), std::string::npos);
    EXPECT_NE(line.find("\"predicted_unloaded_s\":0.125"), std::string::npos);
}

TEST(Trace, ExportSortsByTimeStably) {
    TraceSink s;
    s.enable();
    s.span(2.0, 3.0, 0, SpanId::RedistSync);
    s.instant(1.0, 0, InstantId::FaultClear);
    s.instant(2.0, 1, InstantId::FaultInject); // same time: record order holds
    auto evs = s.sorted_events();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].name, "fault.clear");
    EXPECT_EQ(evs[1].name, "redist.sync");
    EXPECT_EQ(evs[2].name, "fault.inject");
}

TEST(Trace, RingDropsOldestAndCounts) {
    TraceSink s;
    s.enable(/*capacity=*/4);
    for (int i = 0; i < 10; ++i)
        s.instant(static_cast<double>(i), 0, InstantId::RuntimeSkipped,
                  {targ("i", i)});
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.dropped(), 6u);
    auto evs = s.sorted_events();
    EXPECT_DOUBLE_EQ(evs.front().time_s, 6.0); // 0..5 were dropped
}

TEST(Trace, ByteIdenticalAcrossIdenticalRecordings) {
    auto run = [] {
        TraceSink s;
        s.enable();
        s.instant(0.25, 0, InstantId::RuntimeLoadChange, {targ("cycle", 3)});
        s.span(0.25, 0.75, 1, SpanId::RedistPack, {targ("rows", 42)});
        return s.jsonl();
    };
    EXPECT_EQ(run(), run());
}

TEST(Trace, ChromeTraceShape) {
    TraceSink s;
    s.enable();
    s.instant(1.0, 2, InstantId::RuntimeGraceEnter, {targ("cycle", 1)});
    s.span(1.0, 2.0, 0, SpanId::RuntimeCycle);
    std::string j = s.chrome_trace();
    EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos); // instant
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos); // complete span
    EXPECT_NE(j.find("\"tid\":2"), std::string::npos);    // one track per rank
    // 1 s  ->  1e6 µs
    EXPECT_NE(j.find("\"dur\":1000000.000"), std::string::npos);
}

TEST(Trace, JsonEscape) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("q\"b\\s"), "q\\\"b\\\\s");
    EXPECT_EQ(json_escape("tab\tnl\n"), "tab\\tnl\\n");
    EXPECT_EQ(json_escape("cr\r"), "cr\\r");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Trace, JsonNumberIsCompactAndDeterministic) {
    EXPECT_EQ(json_number(0.5), "0.5");
    EXPECT_EQ(json_number(3.0), "3");
    EXPECT_EQ(json_number(0.1), json_number(0.1));
}

TEST(Trace, GlobalSinkSingleton) {
    TraceSink& a = trace();
    TraceSink& b = trace();
    EXPECT_EQ(&a, &b);
    // Leave the global sink untouched for other tests.
    EXPECT_FALSE(a.enabled());
}

}  // namespace
}  // namespace dynmpi::support
