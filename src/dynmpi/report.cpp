#include "dynmpi/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/error.hpp"
#include "support/table.hpp"

namespace dynmpi {

std::string summarize(const RuntimeStats& stats) {
    std::ostringstream os;
    os << stats.cycles << " cycles, " << stats.redistributions
       << " redistribution(s)";
    if (stats.physical_drops > 0)
        os << ", " << stats.physical_drops << " physical drop(s)";
    if (stats.logical_drops > 0)
        os << ", " << stats.logical_drops << " logical drop(s)";
    if (stats.readds > 0) os << ", " << stats.readds << " re-add(s)";
    os << "; " << fmt(stats.redist_wall_s, 3) << "s redistributing ("
       << stats.transfer.rows_moved << " rows, " << stats.transfer.bytes
       << " bytes in " << stats.transfer.messages << " messages)";
    double total = 0;
    for (const auto& r : stats.history) total += r.wall_s;
    if (total > 0)
        os << "; redistribution overhead "
           << pct(stats.redist_wall_s / (total + stats.redist_wall_s));
    return os.str();
}

std::string render_timeline(const RuntimeStats& stats, int bucket,
                            int width) {
    DYNMPI_REQUIRE(bucket > 0 && width > 0, "bad timeline geometry");
    if (stats.history.empty()) return "(no cycles)\n";

    struct Bucket {
        double sum = 0;
        int n = 0;
        bool redist = false;
        bool grace = false;
        bool post = false;
    };
    std::vector<Bucket> buckets((stats.history.size() +
                                 static_cast<std::size_t>(bucket) - 1) /
                                static_cast<std::size_t>(bucket));
    for (const auto& r : stats.history) {
        Bucket& b = buckets[static_cast<std::size_t>(r.cycle / bucket)];
        b.sum += r.wall_s;
        b.n += 1;
        b.redist |= r.redistributed;
        b.grace |= r.mode == 1;
        b.post |= r.mode == 2;
    }
    double max_mean = 0;
    for (const auto& b : buckets)
        if (b.n > 0) max_mean = std::max(max_mean, b.sum / b.n);
    if (max_mean <= 0) max_mean = 1;

    std::ostringstream os;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const Bucket& b = buckets[i];
        double mean = b.n > 0 ? b.sum / b.n : 0;
        int bars = static_cast<int>(mean / max_mean * width + 0.5);
        os << "cyc " << std::setw(5) << static_cast<int>(i) * bucket << " |";
        for (int k = 0; k < bars; ++k) os << '#';
        os << ' ' << fmt(mean * 1e3, 1) << "ms";
        if (b.redist) os << "  R";
        else if (b.grace) os << "  g";
        else if (b.post) os << "  p";
        os << '\n';
    }
    return os.str();
}

std::vector<double> period_sums(const RuntimeStats& stats,
                                const std::vector<int>& boundaries) {
    for (std::size_t i = 1; i < boundaries.size(); ++i)
        DYNMPI_REQUIRE(boundaries[i] > boundaries[i - 1],
                       "boundaries must ascend");
    std::vector<double> sums(boundaries.size() + 1, 0.0);
    for (const auto& r : stats.history) {
        std::size_t k = 0;
        while (k < boundaries.size() && r.cycle >= boundaries[k]) ++k;
        sums[k] += r.wall_s;
    }
    return sums;
}

std::string render_events(const RuntimeStats& stats) {
    auto name = [](AdaptationEvent::Kind k) {
        switch (k) {
        case AdaptationEvent::Kind::LoadChange: return "load-change ";
        case AdaptationEvent::Kind::Redistributed: return "redistributed";
        case AdaptationEvent::Kind::Skipped: return "skipped      ";
        case AdaptationEvent::Kind::Dropped: return "dropped      ";
        case AdaptationEvent::Kind::LogicalDrop: return "logical-drop ";
        case AdaptationEvent::Kind::Readded: return "re-added     ";
        case AdaptationEvent::Kind::NodeCrash: return "node-crash   ";
        case AdaptationEvent::Kind::Quarantine: return "quarantine   ";
        case AdaptationEvent::Kind::Readmit: return "readmit      ";
        case AdaptationEvent::Kind::Rejoin: return "rejoin       ";
        }
        return "?";
    };
    if (stats.events.empty()) return "(no adaptation events)\n";
    std::ostringstream os;
    for (const auto& e : stats.events)
        os << "t=" << fmt(e.time_s, 2) << "s  cyc " << std::setw(4) << e.cycle
           << "  " << name(e.kind) << "  " << e.detail << '\n';
    return os.str();
}

std::string history_csv(const RuntimeStats& stats) {
    CsvWriter w;
    w.row({"cycle", "start_s", "wall_s", "max_wall_s", "mode",
           "redistributed"});
    for (const auto& r : stats.history)
        w.row({std::to_string(r.cycle), fmt(r.start_s, 6), fmt(r.wall_s, 6),
               fmt(r.max_wall_s, 6), std::to_string(r.mode),
               r.redistributed ? "1" : "0"});
    return w.str();
}

double settled_cycle_time(const RuntimeStats& stats, int n) {
    DYNMPI_REQUIRE(n > 0, "need a positive window");
    DYNMPI_REQUIRE(static_cast<int>(stats.history.size()) >= n,
                   "history shorter than the window");
    double s = 0;
    for (std::size_t i = stats.history.size() - static_cast<std::size_t>(n);
         i < stats.history.size(); ++i)
        s += stats.history[i].max_wall_s;
    return s / n;
}

}  // namespace dynmpi
