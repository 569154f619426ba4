#include "support/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace dynmpi::support {

namespace {

std::string render_int(long long v) { return std::to_string(v); }

const char* const kInstantNames[] = {
#define DYNMPI_INSTANT(id, name, ...) name,
#include "support/trace_events.def"
};

const char* const kSpanNames[] = {
#define DYNMPI_SPAN(id, name, ...) name,
#include "support/trace_events.def"
};

}  // namespace

const char* event_name(InstantId id) {
    return kInstantNames[static_cast<std::size_t>(id)];
}

const char* event_name(SpanId id) {
    return kSpanNames[static_cast<std::size_t>(id)];
}

TraceArg targ(std::string key, const std::string& value) {
    return TraceArg{std::move(key), value, /*quoted=*/true};
}

TraceArg targ(std::string key, const char* value) {
    return TraceArg{std::move(key), value, /*quoted=*/true};
}

TraceArg targ(std::string key, double value) {
    return TraceArg{std::move(key), json_number(value), /*quoted=*/false};
}

TraceArg targ(std::string key, int value) {
    return TraceArg{std::move(key), render_int(value), /*quoted=*/false};
}

TraceArg targ(std::string key, std::int64_t value) {
    return TraceArg{std::move(key), render_int(value), /*quoted=*/false};
}

TraceArg targ(std::string key, std::uint64_t value) {
    return TraceArg{std::move(key), std::to_string(value), /*quoted=*/false};
}

TraceArg targ(std::string key, bool value) {
    return TraceArg{std::move(key), value ? "true" : "false",
                    /*quoted=*/false};
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void TraceSink::enable(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = true;
    capacity_ = capacity > 0 ? capacity : 1;
    events_.clear();
    dropped_ = 0;
}

void TraceSink::disable() {
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = false;
}

void TraceSink::record(TraceEvent ev) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() >= capacity_) {
        events_.pop_front();
        ++dropped_;
    }
    events_.push_back(std::move(ev));
}

void TraceSink::instant(double time_s, int rank, InstantId id,
                        std::vector<TraceArg> args) {
    if (!enabled()) return;
    TraceEvent ev;
    ev.time_s = time_s;
    ev.rank = rank;
    ev.name = event_name(id);
    ev.args = std::move(args);
    record(std::move(ev));
}

void TraceSink::span(double t0_s, double t1_s, int rank, SpanId id,
                     std::vector<TraceArg> args) {
    if (!enabled()) return;
    TraceEvent ev;
    ev.time_s = t0_s;
    ev.rank = rank;
    ev.name = event_name(id);
    ev.dur_s = t1_s > t0_s ? t1_s - t0_s : 0.0;
    ev.args = std::move(args);
    record(std::move(ev));
}

void TraceSink::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    dropped_ = 0;
}

std::size_t TraceSink::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::vector<TraceEvent> TraceSink::sorted_events() const {
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        out.assign(events_.begin(), events_.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.time_s < b.time_s;
                     });
    return out;
}

namespace {

void append_args(std::string& out, const std::vector<TraceArg>& args) {
    out += '{';
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += json_escape(args[i].key);
        out += "\":";
        if (args[i].quoted) {
            out += '"';
            out += json_escape(args[i].value);
            out += '"';
        } else {
            out += args[i].value;
        }
    }
    out += '}';
}

}  // namespace

std::string TraceSink::jsonl() const {
    std::string out;
    for (const TraceEvent& ev : sorted_events()) {
        char head[96];
        std::snprintf(head, sizeof head, "{\"t\":%.9f,\"rank\":%d,\"ev\":\"",
                      ev.time_s, ev.rank);
        out += head;
        out += json_escape(ev.name);
        out += '"';
        if (ev.dur_s > 0.0) {
            char dur[48];
            std::snprintf(dur, sizeof dur, ",\"dur\":%.9f", ev.dur_s);
            out += dur;
        }
        out += ",\"args\":";
        append_args(out, ev.args);
        out += "}\n";
    }
    return out;
}

std::string TraceSink::chrome_trace() const {
    std::string out = "{\"traceEvents\":[\n";
    auto events = sorted_events();
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& ev = events[i];
        char head[160];
        if (ev.dur_s > 0.0) {
            std::snprintf(head, sizeof head,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                          "\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":",
                          json_escape(ev.name).c_str(), ev.time_s * 1e6,
                          ev.dur_s * 1e6, ev.rank);
        } else {
            std::snprintf(head, sizeof head,
                          "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                          "\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":",
                          json_escape(ev.name).c_str(), ev.time_s * 1e6,
                          ev.rank);
        }
        out += head;
        append_args(out, ev.args);
        out += '}';
        if (i + 1 < events.size()) out += ',';
        out += '\n';
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

TraceSink& trace() {
    static TraceSink sink;
    return sink;
}

bool write_text_file(const std::string& path, const std::string& contents) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
    return static_cast<bool>(f);
}

}  // namespace dynmpi::support
