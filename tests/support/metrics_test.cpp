// The metrics registry: counters/gauges/histograms, nearest-rank
// percentiles, deterministic JSON/CSV snapshots.
#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/metrics.hpp"

namespace dynmpi::support {
namespace {

TEST(Metrics, CounterAccumulates) {
    MetricsRegistry r;
    r.counter(CounterId::RedistBytes).add(100);
    r.counter(CounterId::RedistBytes).add(28);
    EXPECT_EQ(r.counter(CounterId::RedistBytes).value(), 128u);
    EXPECT_EQ(r.counter(CounterId::RedistMessages).value(), 0u);
}

TEST(Metrics, FamilyMembersAreNamedAtRunTime) {
    MetricsRegistry r;
    r.counter(CounterId::FaultInjectedKind, "crash").add(2);
    r.counter(CounterId::FaultInjectedKind, "revive").add(1);
    EXPECT_EQ(r.counter(CounterId::FaultInjectedKind, "crash").value(), 2u);
    std::string s = r.snapshot_json();
    EXPECT_NE(s.find("\"fault.injected.crash\": 2"), std::string::npos);
    EXPECT_NE(s.find("\"fault.injected.revive\": 1"), std::string::npos);
    EXPECT_EQ(s.find("<kind>"), std::string::npos);
    // Only a family takes a member name.
    EXPECT_THROW(r.counter(CounterId::FaultInjected, "crash"), Error);
}

TEST(Metrics, GaugeLastWriteWins) {
    MetricsRegistry r;
    r.gauge(GaugeId::RuntimeActiveNodes).set(4);
    r.gauge(GaugeId::RuntimeActiveNodes).set(3);
    EXPECT_DOUBLE_EQ(r.gauge(GaugeId::RuntimeActiveNodes).value(), 3.0);
}

TEST(Metrics, HistogramStats) {
    Histogram h;
    for (double v : {4.0, 1.0, 3.0, 2.0}) h.record(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(Metrics, NearestRankPercentile) {
    // Classic nearest-rank example: n = 5 samples.
    Histogram h;
    for (double v : {15.0, 20.0, 35.0, 40.0, 50.0}) h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 15.0);   // p=0 -> minimum
    EXPECT_DOUBLE_EQ(h.percentile(30.0), 20.0);  // ceil(1.5) = 2nd
    EXPECT_DOUBLE_EQ(h.percentile(40.0), 20.0);  // ceil(2.0) = 2nd
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 35.0);  // ceil(2.5) = 3rd
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 50.0); // maximum
}

TEST(Metrics, PercentileSingleSample) {
    Histogram h;
    h.record(7.0);
    for (double p : {0.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 7.0);
}

TEST(Metrics, DisabledByDefaultButInstrumentsAlwaysWork) {
    MetricsRegistry r;
    EXPECT_FALSE(r.enabled());
    r.counter(CounterId::MachineRuns).add(1); // direct use is not gated
    EXPECT_EQ(r.counter(CounterId::MachineRuns).value(), 1u);
    r.enable();
    EXPECT_TRUE(r.enabled());
}

TEST(Metrics, SnapshotJsonSortedAndDeterministic) {
    auto build = [] {
        MetricsRegistry r;
        r.counter(CounterId::RuntimeCycles).add(2);
        r.counter(CounterId::BalancerCalls).add(1);
        r.gauge(GaugeId::MachineElapsedS).set(0.5);
        r.histogram(HistogramId::RedistWallS).record(1.0);
        r.histogram(HistogramId::RedistWallS).record(3.0);
        return r.snapshot_json();
    };
    std::string a = build();
    EXPECT_EQ(a, build());
    // std::map iteration: sorted by name regardless of insertion order.
    EXPECT_LT(a.find("\"balancer.calls\""), a.find("\"runtime.cycles\""));
    EXPECT_NE(a.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(a.find("\"mean\": 2"), std::string::npos);
}

TEST(Metrics, SnapshotJsonEmptyRegistry) {
    MetricsRegistry r;
    std::string s = r.snapshot_json();
    EXPECT_NE(s.find("\"counters\": {}"), std::string::npos);
    EXPECT_NE(s.find("\"gauges\": {}"), std::string::npos);
    EXPECT_NE(s.find("\"histograms\": {}"), std::string::npos);
}

TEST(Metrics, CsvHasHeaderAndKinds) {
    MetricsRegistry r;
    r.counter(CounterId::BalancerCalls).add(5);
    r.gauge(GaugeId::MachineElapsedS).set(1.5);
    r.histogram(HistogramId::RedistWallS).record(2.0);
    r.histogram(HistogramId::BalancerRounds); // created, never recorded
    std::string csv = r.csv();
    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              "name,kind,value,count,sum,min,max,mean,p50,p90,p99");
    EXPECT_NE(csv.find("balancer.calls,counter,5,"), std::string::npos);
    EXPECT_NE(csv.find("machine.elapsed_s,gauge,1.5,"), std::string::npos);
    EXPECT_NE(csv.find("redist.wall_s,histogram,,1,2,2,2,2,2,2,2"),
              std::string::npos);
    EXPECT_NE(csv.find("balancer.rounds,histogram,,0,,,,,,,\n"),
              std::string::npos);
}

TEST(Metrics, ResetDropsInstrumentsKeepsFlag) {
    MetricsRegistry r;
    r.enable();
    r.counter(CounterId::RuntimeCycles).add(1);
    r.histogram(HistogramId::BalancerRounds).record(1.0);
    EXPECT_EQ(r.size(), 2u);
    r.reset();
    EXPECT_EQ(r.size(), 0u);
    EXPECT_TRUE(r.enabled());
}

TEST(Metrics, GlobalRegistrySingleton) {
    EXPECT_EQ(&metrics(), &metrics());
}

}  // namespace
}  // namespace dynmpi::support
