#include "sim/load_trace.hpp"

#include <cstdio>
#include <sstream>

#include "support/error.hpp"

namespace dynmpi::sim {

namespace {

[[noreturn]] void bad_line(const std::string& line, const char* why) {
    throw Error(std::string("load trace: ") + why + " in line: \"" + line +
                "\"");
}

std::vector<std::string> tokens_of(const std::string& s) {
    std::istringstream is(s);
    std::vector<std::string> out;
    std::string t;
    while (is >> t) out.push_back(t);
    return out;
}

}  // namespace

std::vector<LoadDirective> parse_load_trace(const std::string& text) {
    std::vector<LoadDirective> out;
    std::istringstream lines(text);
    std::string raw;
    while (std::getline(lines, raw)) {
        std::string line = raw.substr(0, raw.find('#'));
        auto toks = tokens_of(line);
        if (toks.empty()) continue;
        if (toks[0] != "node" || toks.size() < 3)
            bad_line(raw, "expected 'node <id>: <start> ...'");

        LoadDirective d;
        std::string id = toks[1];
        if (id.empty() || id.back() != ':')
            bad_line(raw, "missing ':' after node id");
        try {
            d.node = std::stoi(id.substr(0, id.size() - 1));
            d.start_s = std::stod(toks[2]);
        } catch (const std::exception&) {
            bad_line(raw, "bad node id or start time");
        }
        std::size_t next = 3;
        if (next < toks.size() && toks[next] != "inf" &&
            (std::isdigit(static_cast<unsigned char>(toks[next][0])) ||
             toks[next][0] == '.')) {
            try {
                d.end_s = std::stod(toks[next]);
            } catch (const std::exception&) {
                bad_line(raw, "bad end time");
            }
            ++next;
        } else if (next < toks.size() && toks[next] == "inf") {
            d.end_s = -1.0;
            ++next;
        }
        for (; next < toks.size(); ++next) {
            const std::string& t = toks[next];
            if (t.size() > 1 && t[0] == 'x') {
                try {
                    d.count = std::stoi(t.substr(1));
                } catch (const std::exception&) {
                    bad_line(raw, "bad count");
                }
            } else if (t.rfind("bursty(", 0) == 0 && t.back() == ')') {
                double period, duty;
                if (std::sscanf(t.c_str(), "bursty(%lf,%lf)", &period,
                                &duty) != 2)
                    bad_line(raw, "bad bursty(...) spec");
                d.burst.period_s = period;
                d.burst.duty = duty;
            } else {
                bad_line(raw, "unknown token");
            }
        }
        if (d.node < 0) bad_line(raw, "negative node id");
        if (d.start_s < 0) bad_line(raw, "negative start time");
        if (d.end_s >= 0 && d.end_s <= d.start_s)
            bad_line(raw, "end time must exceed start time");
        if (d.count <= 0) bad_line(raw, "count must be positive");
        out.push_back(d);
    }
    return out;
}

void apply_load_trace(Cluster& cluster,
                      const std::vector<LoadDirective>& trace) {
    for (const auto& d : trace)
        cluster.add_load_interval(d.node, d.start_s, d.end_s, d.count,
                                  d.burst);
}

void apply_load_trace(Cluster& cluster, const std::string& text) {
    apply_load_trace(cluster, parse_load_trace(text));
}

}  // namespace dynmpi::sim
