#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace dynmpi::support {

void Histogram::record(double v) {
    samples_.push_back(v);
    sum_ += v;
}

double Histogram::min() const {
    DYNMPI_REQUIRE(!samples_.empty(), "min of an empty histogram");
    return *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
    DYNMPI_REQUIRE(!samples_.empty(), "max of an empty histogram");
    return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::mean() const {
    DYNMPI_REQUIRE(!samples_.empty(), "mean of an empty histogram");
    return sum_ / static_cast<double>(samples_.size());
}

double Histogram::percentile(double p) const {
    DYNMPI_REQUIRE(!samples_.empty(), "percentile of an empty histogram");
    DYNMPI_REQUIRE(p >= 0.0 && p <= 100.0, "percentile outside [0, 100]");
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    // Nearest-rank: the ceil(p/100 * n)-th smallest (1-based); p = 0 maps
    // to the first.
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    if (rank == 0) rank = 1;
    return sorted[rank - 1];
}

namespace {

const char* const kCounterNames[] = {
#define DYNMPI_COUNTER(id, name, ...) name,
#include "support/trace_events.def"
};
const char* const kGaugeNames[] = {
#define DYNMPI_GAUGE(id, name, ...) name,
#include "support/trace_events.def"
};
const char* const kHistogramNames[] = {
#define DYNMPI_HISTOGRAM(id, name, ...) name,
#include "support/trace_events.def"
};

}  // namespace

const char* metric_name(CounterId id) {
    return kCounterNames[static_cast<std::size_t>(id)];
}

const char* metric_name(GaugeId id) {
    return kGaugeNames[static_cast<std::size_t>(id)];
}

const char* metric_name(HistogramId id) {
    return kHistogramNames[static_cast<std::size_t>(id)];
}

Counter& MetricsRegistry::counter(CounterId family, std::string_view member) {
    std::string name = metric_name(family);
    const std::size_t placeholder = name.rfind(".<");
    DYNMPI_REQUIRE(placeholder != std::string::npos && name.back() == '>',
                   "metric " + name + " is not a family");
    name.replace(placeholder + 1, std::string::npos, member);
    return counters_[name];
}

void MetricsRegistry::reset() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

namespace {

const double kHistPercentiles[] = {50.0, 90.0, 99.0};
const char* const kHistPercentileKeys[] = {"p50", "p90", "p99"};

}  // namespace

std::string MetricsRegistry::snapshot_json() const {
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + json_escape(name) +
               "\": " + std::to_string(c.value());
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + json_escape(name) +
               "\": " + json_number(g.value());
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + json_escape(name) + "\": {\"count\": " +
               std::to_string(h.count());
        if (h.count() > 0) {
            out += ", \"sum\": " + json_number(h.sum());
            out += ", \"min\": " + json_number(h.min());
            out += ", \"max\": " + json_number(h.max());
            out += ", \"mean\": " + json_number(h.mean());
            for (std::size_t i = 0; i < 3; ++i)
                out += std::string(", \"") + kHistPercentileKeys[i] +
                       "\": " + json_number(h.percentile(kHistPercentiles[i]));
        }
        out += "}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

std::string MetricsRegistry::csv() const {
    CsvWriter w;
    w.row({"name", "kind", "value", "count", "sum", "min", "max", "mean",
           "p50", "p90", "p99"});
    for (const auto& [name, c] : counters_)
        w.row({name, "counter", std::to_string(c.value()), "", "", "", "",
               "", "", "", ""});
    for (const auto& [name, g] : gauges_)
        w.row({name, "gauge", json_number(g.value()), "", "", "", "", "",
               "", "", ""});
    for (const auto& [name, h] : histograms_) {
        if (h.count() == 0) {
            w.row({name, "histogram", "", "0", "", "", "", "", "", "", ""});
            continue;
        }
        w.row({name, "histogram", "", std::to_string(h.count()),
               json_number(h.sum()), json_number(h.min()),
               json_number(h.max()), json_number(h.mean()),
               json_number(h.percentile(50.0)),
               json_number(h.percentile(90.0)),
               json_number(h.percentile(99.0))});
    }
    return w.str();
}

MetricsRegistry& metrics() {
    static MetricsRegistry registry;
    return registry;
}

}  // namespace dynmpi::support
