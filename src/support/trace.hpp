// Structured trace-event sink (the event half of the observability layer;
// docs/OBSERVABILITY.md documents the full schema).
//
// Call sites record typed events carrying *virtual* sim time and the
// emitting rank — never a wall clock — so two identical runs produce
// byte-identical traces.  Events land in a bounded ring buffer (oldest
// dropped first, with a drop counter) and export as
//
//   - JSONL: one JSON object per line, fixed key order, for tools and the
//     tools/check_trace.py schema validator;
//   - Chrome trace JSON: load in chrome://tracing or https://ui.perfetto.dev,
//     one track (tid) per rank.
//
// The sink is disabled by default and recording is a no-op while disabled;
// hot paths must guard argument construction with `trace().enabled()`.
// Events are named only by the ids generated from support/trace_events.def,
// so a call site cannot emit a name the catalog lacks.
//
// Threading: msg::Machine runs its rank fibers one at a time on the engine
// thread, so the process-global sink sees a deterministic, race-free record
// order; a mutex still protects record() for Machines on other threads.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dynmpi::support {

/// Instant-event ids: one per DYNMPI_INSTANT row of trace_events.def.
enum class InstantId {
#define DYNMPI_INSTANT(id, ...) id,
#include "support/trace_events.def"
};

/// Span-event ids: one per DYNMPI_SPAN row of trace_events.def.
enum class SpanId {
#define DYNMPI_SPAN(id, ...) id,
#include "support/trace_events.def"
};

/// The dotted event name of an id, e.g. `runtime.grace_enter`.
const char* event_name(InstantId id);
const char* event_name(SpanId id);

/// One key/value argument of a trace event.  The value is pre-rendered to
/// text at record time; `quoted` says whether JSON export wraps it in quotes
/// (strings) or emits it raw (numbers / booleans).
struct TraceArg {
    std::string key;
    std::string value;
    bool quoted = false;
};

TraceArg targ(std::string key, const std::string& value);
TraceArg targ(std::string key, const char* value);
TraceArg targ(std::string key, double value);
TraceArg targ(std::string key, int value);
TraceArg targ(std::string key, std::int64_t value);
TraceArg targ(std::string key, std::uint64_t value);
TraceArg targ(std::string key, bool value);

/// One structured event.  `dur_s > 0` makes it a span (Chrome "X" complete
/// event starting at time_s); otherwise it is an instant.
struct TraceEvent {
    double time_s = 0.0;   ///< virtual sim time (seconds), never wall clock
    int rank = -1;         ///< emitting rank; -1 = machine/engine scope
    std::string_view name; ///< event_name() of its id (static storage)
    double dur_s = 0.0;    ///< span length in sim seconds (0 = instant)
    std::vector<TraceArg> args;
};

class TraceSink {
public:
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    /// Start recording; clears previously buffered events.
    void enable(std::size_t capacity = kDefaultCapacity);
    void disable();

    bool enabled() const { return enabled_; }

    /// Record an instant event (no-op while disabled).  When the ring is
    /// full the oldest event is discarded and dropped() incremented.
    void instant(double time_s, int rank, InstantId id,
                 std::vector<TraceArg> args = {});

    /// Record a span covering [t0_s, t1_s] (no-op while disabled).
    void span(double t0_s, double t1_s, int rank, SpanId id,
              std::vector<TraceArg> args = {});

    void clear();
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    std::uint64_t dropped() const { return dropped_; }

    /// Buffered events, stably sorted by sim time (record order breaks ties,
    /// which is itself deterministic: one rank fiber runs at a time).
    std::vector<TraceEvent> sorted_events() const;

    /// JSONL export: one line per event, fixed key order
    /// {"t":..,"rank":..,"ev":"..","dur":..,"args":{..}} ("dur" only on
    /// spans).  Events are ordered by sim time.
    std::string jsonl() const;

    /// Chrome trace JSON ({"traceEvents":[...]}) for chrome://tracing;
    /// timestamps in microseconds, one tid per rank.
    std::string chrome_trace() const;

private:
    void record(TraceEvent ev);

    mutable std::mutex mu_;
    bool enabled_ = false;
    std::size_t capacity_ = kDefaultCapacity;
    std::deque<TraceEvent> events_;
    std::uint64_t dropped_ = 0;
};

/// The process-global sink every instrumentation point records into.
TraceSink& trace();

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// Render a double the way every exporter does ("%.9g": full precision,
/// no trailing-zero noise, deterministic).
std::string json_number(double v);

/// Write `contents` to `path`; returns false (and leaves no partial file
/// guarantees) on I/O failure.
bool write_text_file(const std::string& path, const std::string& contents);

}  // namespace dynmpi::support
