// Metrics registry (the aggregate half of the observability layer;
// docs/OBSERVABILITY.md holds the catalog of instrument names).
//
// Three instrument kinds, all named by dotted strings:
//
//   Counter   — monotonically increasing integer (events, bytes, rows);
//   Gauge     — last-write-wins double (elapsed seconds, queue depths);
//   Histogram — recorded samples with min/max/mean and nearest-rank
//               percentiles (per-cycle walls, pack/unpack timings).
//
// The registry is process-global and disabled by default: instrumentation
// points guard with metrics().enabled() so a disabled registry costs one
// branch.  Tests and tools may use instruments directly regardless of the
// flag — enable() only gates the library's built-in instrumentation.
//
// Aggregation semantics on the simulated machine: every rank fiber updates
// the same registry (one runs at a time, so deterministically).  Cluster-wide
// quantities (redistribution bytes, balancer rounds) therefore aggregate
// over all ranks; run-level quantities (cycle counts) are recorded by world
// rank 0 only.  snapshot_json()/csv() iterate names in sorted order, so two
// identical runs snapshot byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dynmpi::support {

class Counter {
public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

private:
    std::uint64_t value_ = 0;
};

class Gauge {
public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

private:
    double value_ = 0.0;
};

class Histogram {
public:
    void record(double v);

    std::size_t count() const { return samples_.size(); }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

    /// Nearest-rank percentile, p in [0, 100]: the ceil(p/100 * n)-th
    /// smallest sample (p = 0 returns the minimum).  Requires count() > 0.
    double percentile(double p) const;

private:
    std::vector<double> samples_;
    double sum_ = 0.0;
};

class MetricsRegistry {
public:
    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    /// Find-or-create by name.  References stay valid until reset().
    Counter& counter(const std::string& name) { return counters_[name]; }
    Gauge& gauge(const std::string& name) { return gauges_[name]; }
    Histogram& histogram(const std::string& name) {
        return histograms_[name];
    }

    std::size_t size() const {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Drop every instrument (the enabled flag is unchanged).
    void reset();

    /// Deterministic JSON snapshot:
    ///   {"counters":{...},"gauges":{...},"histograms":{name:
    ///    {"count":..,"sum":..,"min":..,"max":..,"mean":..,
    ///     "p50":..,"p90":..,"p99":..}}}
    std::string snapshot_json() const;

    /// Deterministic CSV snapshot (shared CsvWriter quoting); columns:
    /// name,kind,value,count,sum,min,max,mean,p50,p90,p99 — unused cells
    /// empty.
    std::string csv() const;

private:
    bool enabled_ = false;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

/// The process-global registry every instrumentation point updates.
MetricsRegistry& metrics();

}  // namespace dynmpi::support
